import hashlib
import random
from itertools import combinations

import pytest

from ghw.code import build_code, ghw_prop1, hierarchy_prop1
from ghw.field import field_new
from ghw.formulas import (
    NotApplicable,
    _select_tables,
    code_params_formula,
    hierarchy_formula,
    lemma1_dim,
    lemma1_witness,
)
from ghw.linalg import intersection, rref, subspace_from_vectors, sum_space
from ghw.oracle import hierarchy_definitional, lemma1_brute
from ghw.simplicial import normalize

F2 = field_new(2)
F3 = field_new(3)


def _table_ids(q, spec):
    return [key for key, _ in _select_tables(q, spec)]


# ---- applicability dispatch ----------------------------------------------


def test_rejects_union_not_covering():
    spec = normalize(4, [[1, 2]], False)
    with pytest.raises(NotApplicable) as exc:
        hierarchy_formula(2, spec)
    assert "3" in str(exc.value) and "4" in str(exc.value)


def test_rejects_four_overlapping_generators():
    spec = normalize(4, [[1, 2], [2, 3], [3, 4], [1, 4]], False)
    with pytest.raises(NotApplicable):
        hierarchy_formula(2, spec)


def test_rejects_overlapping_complement_triple():
    spec = normalize(4, [[1, 2], [2, 3], [3, 4]], True)
    with pytest.raises(NotApplicable):
        hierarchy_formula(2, spec)


def test_rejects_degenerate_complement():
    spec = normalize(3, [[1, 2], [2, 3]], True)
    with pytest.raises(NotApplicable) as exc:
        hierarchy_formula(2, spec)
    assert "dimension" in str(exc.value)
    # the same shape is fine over a larger field
    closed = hierarchy_formula(3, spec)
    assert closed.k == 3
    assert closed.values == hierarchy_prop1(F3, spec).values


def test_rejects_empty_complement():
    spec = normalize(3, [[1, 2, 3]], True)
    with pytest.raises(NotApplicable):
        hierarchy_formula(2, spec)


def test_dispatch_picks_expected_tables():
    assert _table_ids(2, normalize(3, [[1, 2, 3]], False)) == ["T1"]
    assert _table_ids(2, normalize(5, [[1, 2, 3], [3, 4, 5]], False)) == ["T2:Table1"]
    # strict t13 < t23 keeps only the low-cross arrangement
    assert _table_ids(3, normalize(5, [[1, 2], [1, 3, 4], [2, 3, 4, 5]], False)) == [
        "T3:Table2"
    ]
    assert _table_ids(2, normalize(7, [[1, 2], [2, 3, 4], [1, 5, 6, 7]], False)) == [
        "T3:Table3"
    ]
    # disjoint generators are claimed by their own table as well
    assert _table_ids(2, normalize(4, [[1, 2], [3, 4]], False)) == [
        "T2:Table1",
        "T4:Table4",
    ]
    assert _table_ids(3, normalize(5, [[2, 3, 4]], True)) == ["T5:Table5"]
    assert _table_ids(2, normalize(6, [[1, 2], [2, 3, 4]], True)) == ["T6:Table6"]
    assert _table_ids(3, normalize(5, [[1], [2], [3], [4, 5]], True)) == [
        "T7:Table7",
    ]


def test_dispatch_on_size_ties():
    # equal top sizes with tied intersections let two arrangements claim it
    assert _table_ids(2, normalize(6, [[1, 2], [2, 3, 4, 5], [1, 3, 4, 6]], False)) == [
        "T3:Table2",
        "A-Table8",
    ]
    assert _table_ids(2, normalize(7, [[1, 2, 3], [1, 2, 4, 5], [3, 4, 6, 7]], False)) == [
        "A-Table9",
    ]
    assert _table_ids(2, normalize(6, [[1, 2, 3], [1, 4, 5], [2, 3, 6]], False)) == [
        "A-Table10",
    ]
    assert _table_ids(2, normalize(6, [[1, 2, 3], [1, 2, 4], [3, 5, 6]], False)) == [
        "A-Table11",
    ]


def test_swapped_high_table_keeps_its_strict_boundaries():
    # A-Table9's second and third ranges exclude their upper ends; with
    # inclusive ends r=2 would read row3
    spec = normalize(5, [[1, 2], [1, 3], [4, 5]], False)
    for q in (2, 3):
        assert _table_ids(q, spec) == ["A-Table9", "A-Table11"]
        assert hierarchy_formula(q, spec).provenance == (
            "A-Table9:row1",
            "A-Table9:row4",
            "A-Table9:row4",
            "A-Table9:row6",
            "A-Table9:row6",
        )


def _covering_triples(m):
    """Every covering, containment-free three-generator spec on m coordinates."""
    subsets = [
        frozenset(c) for k in range(1, m + 1) for c in combinations(range(1, m + 1), k)
    ]
    for trio in combinations(subsets, 3):
        if any(x < y for x in trio for y in trio):
            continue
        if frozenset().union(*trio) == frozenset(range(1, m + 1)):
            yield normalize(m, [sorted(s) for s in trio], False)


# sha256 of the record below as the hand-transcribed A-Table8-11 produced
# it; the tables derived by role permutation must reproduce it byte for byte
_TRIPLE_DISPATCH_SHA256 = "e72ba2d3b45c5ecd8452a07a32bf2e675f4c3709632cf9bd66bbf20041109f66"


def test_three_generator_dispatch_is_pinned():
    """Claimants, values and provenance (or the reason no closed form
    applies) of every covering three-generator spec with m <= 6 over GF(2)
    and GF(3), hashed; every three-generator table appears in it."""
    lines = []
    seen = set()
    for m in range(3, 7):
        for spec in _covering_triples(m):
            for q in (2, 3):
                keys = _table_ids(q, spec)
                seen.update(keys)
                try:
                    h = hierarchy_formula(q, spec)
                    outcome = (h.values, h.provenance)
                except NotApplicable as exc:
                    outcome = exc.reason
                lines.append(repr((q, m, spec.sets, keys, outcome)))
    assert seen == {
        "T3:Table2",
        "T3:Table3",
        "T4:Table4",
        "A-Table8",
        "A-Table9",
        "A-Table10",
        "A-Table11",
    }
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == _TRIPLE_DISPATCH_SHA256


def _dispatch_digest(cases):
    """sha256 over claimant keys, values and provenance (or the reason no
    closed form applies) of each (q, spec), one repr line per case, and
    the set of claimant keys seen."""
    lines = []
    seen = set()
    for q, spec in cases:
        keys = []
        try:
            keys = _table_ids(q, spec)
            h = hierarchy_formula(q, spec)
            outcome = (h.values, h.provenance)
        except NotApplicable as exc:
            outcome = exc.reason
        seen.update(keys)
        lines.append(repr((q, spec.m, spec.sets, spec.complement, keys, outcome)))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest(), seen


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


# sha256 of the records below as the hand-transcribed tables produced them
_SMALL_FAMILY_DISPATCH_SHA256 = "8b87aefe622133bdcd53fd37f3ce4463eac19e2ff7bf14af5721560224c075ad"
_DISJOINT_DISPATCH_SHA256 = "b6e2725e2060449afb3e705a76f125b685167c5a0c794218f787f9ea8154063c"


def test_one_and_two_generator_dispatch_is_pinned():
    """Every antichain of one or two generators with m <= 6, both flags,
    over GF(2) and GF(3): T1, T2, T4-T7 and each refusal reason."""
    cases = []
    for m in range(1, 7):
        subsets = [c for k in range(1, m + 1) for c in combinations(range(1, m + 1), k)]
        families = [(s,) for s in subsets] + [
            (x, y)
            for x, y in combinations(subsets, 2)
            if not (set(x) <= set(y) or set(y) <= set(x))
        ]
        for sets in families:
            for complement in (False, True):
                spec = normalize(m, sets, complement)
                cases += [(q, spec) for q in (2, 3)]
    digest, seen = _dispatch_digest(cases)
    assert seen == {"T1", "T2:Table1", "T4:Table4", "T5:Table5", "T6:Table6", "T7:Table7"}
    assert digest == _SMALL_FAMILY_DISPATCH_SHA256


def test_disjoint_cover_dispatch_is_pinned():
    """Every partition of [m] into at least two generators with m <= 7,
    both flags, over GF(2) and GF(3): T4 and T7 beside the overlap tables."""
    cases = []
    for m in range(2, 8):
        for part in _set_partitions(list(range(1, m + 1))):
            if len(part) < 2:
                continue
            for complement in (False, True):
                spec = normalize(m, part, complement)
                cases += [(q, spec) for q in (2, 3)]
    digest, seen = _dispatch_digest(cases)
    assert {"T4:Table4", "T7:Table7"} <= seen
    assert digest == _DISJOINT_DISPATCH_SHA256


# ---- values against the search -------------------------------------------


def test_rotated_and_reversed_tables_match_search():
    for sets in ([[1, 2, 3], [1, 4, 5], [2, 3, 6]], [[1, 2, 3], [1, 2, 4], [3, 5, 6]]):
        spec = normalize(6, sets, False)
        closed = hierarchy_formula(2, spec)
        searched = hierarchy_prop1(F2, spec)
        assert closed.values == searched.values


def test_high_cross_table_matches_search():
    spec = normalize(7, [[1, 2], [2, 3, 4], [1, 5, 6, 7]], False)
    assert _table_ids(2, spec) == ["T3:Table3"]
    closed = hierarchy_formula(2, spec)
    searched = hierarchy_prop1(F2, spec)
    assert closed.values == searched.values


def test_size_tied_row_boundaries():
    """A wide instance where the second range of the size-tied arrangement
    is nonempty; the low rank values are confirmed by search and the rest
    by agreement between the two claiming tables."""
    spec = normalize(8, [[1, 2], [2, 3, 4, 5], [5, 6, 7, 8]], False)
    ids = _table_ids(2, spec)
    assert ids == ["A-Table8", "A-Table9"]
    closed = hierarchy_formula(2, spec)
    assert closed.values == (2, 10, 14, 16, 24, 28, 30, 31)
    for r in (1, 2, 3):
        value, _ = ghw_prop1(F2, spec, r)
        assert value == closed.values[r - 1]


def test_formula_matches_oracles_on_mixed_batch():
    rng = random.Random(97)
    done = 0
    while done < 15:
        field = rng.choice((F2, F3))
        m = rng.randrange(3, 6)
        l = rng.randrange(1, 4)
        sets = [
            rng.sample(range(1, m + 1), rng.randrange(1, m + 1)) for _ in range(l)
        ]
        comp = rng.random() < 0.5
        spec = normalize(m, sets, comp)
        try:
            closed = hierarchy_formula(field.q, spec)
        except NotApplicable:
            continue
        searched = hierarchy_prop1(field, spec)
        assert closed.values == searched.values, spec
        assert closed.values == hierarchy_definitional(build_code(field, spec)).values
        done += 1


# ---- parameter triples -----------------------------------------------------


def test_code_params_known_triples():
    assert code_params_formula(2, normalize(4, [[1, 2, 3, 4]], False)) == (16, 4, 8)
    assert code_params_formula(2, normalize(5, [[1, 2, 3], [3, 4, 5]], False)) == (14, 5, 4)
    assert code_params_formula(2, normalize(5, [[2, 3, 4]], True)) == (24, 5, 12)
    assert code_params_formula(2, normalize(6, [[1, 2], [2, 3, 4]], True)) == (54, 6, 26)
    assert code_params_formula(3, normalize(5, [[1], [2], [3], [4, 5]], True)) == (
        228,
        5,
        150,
    )


def test_two_generator_triple_expression():
    # direct closed expressions for the top of the hierarchy
    q, m, a1, a2, t12 = 2, 5, 3, 3, 1
    spec = normalize(m, [[1, 2, 3], [3, 4, 5]], False)
    n, k, d1 = code_params_formula(q, spec)
    assert n == q**a1 + q**a2 - q**t12
    assert d1 == q**a1 - q ** (t12 + m - a2 - 1)


def test_disjoint_triple_expression():
    q, m = 3, 6
    sizes = (1, 1, 2, 2)
    spec = normalize(m, [[1], [2], [3, 4], [5, 6]], False)
    n, k, d1 = code_params_formula(q, spec)
    assert n == sum(q**a for a in sizes) - len(sizes) + 1
    assert d1 == q ** sizes[0] - q ** (m - 1 - sum(sizes[1:]))


def test_complement_triple_expressions():
    q, m, s = 2, 5, 3
    n, k, d1 = code_params_formula(q, normalize(m, [[2, 3, 4]], True))
    assert (n, d1) == (q**m - q**s, q**m - q**s - q ** (m - 1) + q ** (s - 1))
    q, m, a1, a2, t12 = 2, 6, 2, 3, 1
    n, k, d1 = code_params_formula(q, normalize(m, [[1, 2], [2, 3, 4]], True))
    assert n == q**m - q**a1 - q**a2 + q**t12
    assert d1 == q**m - q**a1 - q**a2 - q ** (m - 1) + q ** (a1 - 1) + q ** (a2 - 1)
    q, m, sizes = 3, 5, (1, 1, 1, 2)
    n, k, d1 = code_params_formula(q, normalize(m, [[1], [2], [3], [4, 5]], True))
    assert d1 == (q - 1) * q ** (m - 1) - sum((q - 1) * q ** (a - 1) for a in sizes)


# ---- the avoidance construction -------------------------------------------


def test_lemma1_dim_validation():
    assert lemma1_dim(3, 2, 1) == 1
    assert lemma1_dim(2, 2, 2) == 0
    with pytest.raises(ValueError):
        lemma1_dim(2, 3, 3)
    with pytest.raises(ValueError):
        lemma1_dim(2, 3, -1)


def test_witness_avoids_both_inputs():
    rng = random.Random(5)
    for field in (F2, F3):
        for _ in range(20):
            m = rng.randrange(2, 5)
            u = subspace_from_vectors(
                field,
                [tuple(rng.randrange(field.q) for _ in range(m)) for _ in range(2)],
                m,
            )
            v = subspace_from_vectors(
                field,
                [tuple(rng.randrange(field.q) for _ in range(m)) for _ in range(2)],
                m,
            )
            inter = intersection(field, u, v)
            w = lemma1_witness(field, u, v)
            assert w.dim == lemma1_dim(u.dim, v.dim, inter.dim)
            assert w.dim == lemma1_brute(field, u, v)
            total = sum_space(field, u, v)
            for coeffs in _nonzero_combos(field, w.dim):
                vec = _combine(field, coeffs, w.basis, m)
                assert _contains(field, total, vec)
                assert not _contains(field, u, vec)
                assert not _contains(field, v, vec)


def test_witness_of_nested_pair_is_trivial():
    u = subspace_from_vectors(F2, [(1, 0, 0)], 3)
    v = subspace_from_vectors(F2, [(1, 0, 0), (0, 1, 0)], 3)
    assert lemma1_witness(F2, u, v).dim == 0


def _nonzero_combos(field, dim):
    from itertools import product

    for coeffs in product(field.elements(), repeat=dim):
        if any(coeffs):
            yield coeffs


def _combine(field, coeffs, basis, m):
    out = (0,) * m
    for c, row in zip(coeffs, basis):
        out = tuple(map(field.add, out, (field.mul(c, x) for x in row)))
    return out


def _contains(field, sub, vec):
    """vec lies in sub when adding it leaves the rank unchanged."""
    return rref(field, sub.basis + (vec,))[1] == sub.dim
