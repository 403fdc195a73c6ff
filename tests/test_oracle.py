import dataclasses
import random
import tracemalloc
from itertools import combinations, product

import numpy as np
import pytest

from ghw.code import build_code, hierarchy_prop1
from ghw.config import ResourceCapError
from ghw.field import field_new
from ghw.formulas import NotApplicable, hierarchy_formula, lemma1_dim, lemma1_witness
from ghw.linalg import (
    enumerate_subspaces,
    gaussian_binomial,
    intersection,
    rref,
    subspace_from_vectors,
)
from ghw.oracle import (
    _row_supports,
    ghw_definitional,
    hierarchy_definitional,
    lemma1_brute,
    lemma1_brute_multi,
)
from ghw.simplicial import normalize

F2 = field_new(2)
F3 = field_new(3)
F4 = field_new(2, 2)
F8 = field_new(2, 3)
F9 = field_new(3, 2)


def _axis(field, i, m):
    return subspace_from_vectors(field, [tuple(int(j == i) for j in range(m))], m)


# ---- subcode enumeration ---------------------------------------------------


@pytest.mark.parametrize(
    "field, m, values", [(F3, 41, (6, 8)), (F2, 64, (2, 3))], ids=["q3m41", "q2m64"]
)
def test_columns_past_63_bits_are_decoded(field, m, values):
    """The columns of <m-1, m> in F^m have codes below q^2, but the
    leading digit of F^m weighs q^(m-1) >= 2^63; decoded without that
    weight, the generator has rank k = 2 and the oracle agrees with the
    search."""
    spec = normalize(m, [[m - 1, m]], False)
    assert hierarchy_definitional(build_code(field, spec)).values == values
    assert hierarchy_prop1(field, spec).values == values


def test_definitional_tiny_code_by_hand():
    # two single points plus the origin: three columns, one per vector of
    # weight at most one, so the lightest codeword has weight 1 and the
    # zero column never contributes
    code = build_code(F2, normalize(2, [[1], [2]], False))
    assert (code.n, code.k) == (3, 2)
    hier = hierarchy_definitional(code)
    assert hier.values == (1, 2)
    assert hier.method == "definitional"


def test_definitional_rank_validation():
    code = build_code(F2, normalize(2, [[1], [2]], False))
    with pytest.raises(ValueError):
        ghw_definitional(code, 0)
    with pytest.raises(ValueError):
        ghw_definitional(code, 3)


def test_definitional_hierarchy_refuses_an_oversized_rank_first(monkeypatch):
    """Rank 1 has 31 subcodes and rank 2 has 155: with a cap of 100 the
    hierarchy is refused before any subcode is enumerated."""
    code = build_code(F2, normalize(5, [[1, 2, 3], [3, 4, 5]], False))
    assert ghw_definitional(code, 1, max_enum=100) == 4
    calls = []
    monkeypatch.setattr("ghw.oracle.subspace_bases_array", lambda *a: calls.append(a))
    with pytest.raises(ResourceCapError, match="enumerate 155 2-dim subcodes"):
        hierarchy_definitional(code, max_enum=100)
    assert calls == []


def test_definitional_checks_the_recorded_dimension():
    code = build_code(F2, normalize(5, [[1, 2, 3], [3, 4, 5]], False))
    wrong = dataclasses.replace(code, k=code.k - 1)
    with pytest.raises(ValueError, match="rank 5, but the code records k = 4"):
        ghw_definitional(wrong, 1)


def test_definitional_known_flag_code():
    code = build_code(F2, normalize(5, [[1, 2, 3], [3, 4, 5]], False))
    assert (code.n, code.k) == (14, 5)
    assert hierarchy_definitional(code).values == (4, 6, 10, 12, 13)


def test_definitional_agrees_with_subspace_search():
    rng = random.Random(20240214)
    cases = 0
    while cases < 8:
        field = rng.choice((F2, F3))
        m = rng.randrange(2, 5)
        l = rng.randrange(1, 3)
        sets = [rng.sample(range(1, m + 1), rng.randrange(1, m)) for _ in range(l)]
        comp = rng.random() < 0.5
        spec = normalize(m, sets, comp)
        try:
            code = build_code(field, spec)
        except ValueError:
            continue
        searched = hierarchy_prop1(field, spec)
        for r in range(1, code.k + 1):
            assert ghw_definitional(code, r) == searched.values[r - 1], spec
        cases += 1


def test_definitional_memory_is_bounded_by_bytes():
    """The support table is built from blocks of codeword digits sized by
    bytes, and a long code gets fewer subcodes per chunk, so the oracle
    stays near its byte budget whatever n is (4096 rows of digits of
    width 702 would peak near 200 MB)."""
    spec = normalize(6, [[2, 3, 4]], True)
    code = build_code(F3, spec)
    assert code.n == 702
    expect = hierarchy_prop1(F3, spec).values[2]
    tracemalloc.start()
    try:
        assert ghw_definitional(code, 3) == expect
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, peak


def _monic_messages(q, k):
    """Every nonzero message whose first nonzero entry is 1, ordered by
    pivot and then lexicographically: the canonical order of the 1-dim
    subspaces of F_q^k."""
    monic = [x for x in product(range(q), repeat=k) if any(x)]
    monic = [x for x in monic if x[next(i for i, a in enumerate(x) if a)] == 1]
    return sorted(monic, key=lambda x: (next(i for i, a in enumerate(x) if a), x))


def test_support_table_matches_scalar_codewords():
    """Each row of the packed table is the support of x G, computed entry
    by entry with the scalar field operations, for every monic x."""
    plan = (
        (F2, 4, [[1, 2], [2, 3, 4]], False),
        (F2, 4, [[1, 2], [3, 4]], True),
        (F3, 3, [[1, 2], [2, 3]], False),
        (F3, 3, [[1], [2, 3]], True),
        (F4, 3, [[1, 2], [3]], False),
        (F4, 3, [[1, 2]], True),
        (F8, 2, [[1], [2]], False),
        (F8, 2, [[1]], True),
        (F9, 2, [[1], [2]], True),
    )
    for field, m, sets, comp in plan:
        code = build_code(field, normalize(m, sets, comp))
        reduced, _, _ = rref(field, [tuple(int(x) for x in row) for row in code.generator])
        table = _row_supports(code)
        assert table.dtype == np.dtype("<u8")
        assert table.shape == (gaussian_binomial(code.k, 1, field.q), -(-code.n // 64))
        bits = np.unpackbits(table.view(np.uint8), axis=1, bitorder="little")
        assert not bits[:, code.n :].any()
        for row, x in zip(bits, _monic_messages(field.q, code.k)):
            word = [0] * code.n
            for a, g in zip(x, reduced):
                word = [field.add(w, field.mul(a, b)) for w, b in zip(word, g)]
            assert row[: code.n].tolist() == [int(w != 0) for w in word], (field, sets, x)


def test_definitional_agrees_with_search_on_extension_complements():
    checked = 0
    for field, top in ((F4, 3), (F9, 2)):
        for m in range(1, top + 1):
            subsets = [c for size in range(1, m) for c in combinations(range(1, m + 1), size)]
            for l in (1, 2):
                for sets in combinations(subsets, l):
                    spec = normalize(m, sets, True)
                    expect = hierarchy_prop1(field, spec).values
                    assert hierarchy_definitional(build_code(field, spec)).values == expect
                    checked += 1
    assert checked == 27


@pytest.mark.parametrize(
    "field, sets, values",
    [
        (F2, [[1, 2, 4], [1, 3, 4], [1, 2, 5, 6], [3, 4, 5, 6]], (12, 20, 25, 28, 30, 31)),
        (
            F3,
            [[1, 2], [1, 3, 4], [2, 3, 6], [2, 4, 5], [3, 5, 6], [4, 5, 6]],
            (408, 548, 598, 616, 622, 624),
        ),
    ],
    ids=["q2m6", "q3m6"],
)
def test_complements_no_table_claims_are_pinned(field, sets, values):
    """Two m = 6 complements on which a conjectured closed form (coordinate
    on a support, generic off it) gives d_2 = 21 and 550: no table claims
    them, and the search and the subcode enumeration agree on these
    values.  Their four and six generators exercise the merged
    inclusion-exclusion."""
    spec = normalize(6, sets, True)
    with pytest.raises(NotApplicable):
        hierarchy_formula(field.q, spec)
    assert hierarchy_prop1(field, spec).values == values
    assert hierarchy_definitional(build_code(field, spec)).values == values


def test_definitional_hierarchy_reduces_the_generator_once(monkeypatch):
    """One row reduction per code, not one per rank: the support table is
    built once and shared by every rank."""
    code = build_code(F3, normalize(4, [[1, 2], [2, 3, 4]], False))
    calls = []

    def counting(*args):
        calls.append(args)
        return rref(*args)

    monkeypatch.setattr("ghw.oracle.rref", counting)
    assert hierarchy_definitional(code).values == hierarchy_prop1(F3, code.spec).values
    assert code.k == 4
    assert len(calls) == 1


def test_definitional_top_rank_caps_the_support_table(monkeypatch):
    """Rank k has a single subcode, but the table behind it has a row per
    1-dim subcode: 31 here, so a cap of 30 refuses it before any work."""
    code = build_code(F2, normalize(5, [[1, 2, 3], [3, 4, 5]], False))
    rows = gaussian_binomial(code.k, 1, 2)
    calls = []
    monkeypatch.setattr("ghw.oracle.subspace_bases_array", lambda *a: calls.append(a))
    with pytest.raises(ResourceCapError, match=f"enumerate {rows} 1-dim subcodes"):
        ghw_definitional(code, code.k, max_enum=rows - 1)
    assert calls == []


def test_definitional_extension_field():
    spec = normalize(3, [[1, 2], [2, 3]], False)
    code = build_code(F4, spec)
    hier = hierarchy_definitional(code)
    assert hier.values == (12, 24, 27)
    assert hier.values == hierarchy_prop1(F4, spec).values


# ---- exhaustive avoidance search -------------------------------------------


def test_avoidance_axis_pins():
    e1, e2, e3 = (_axis(F2, i, 3) for i in range(3))
    assert lemma1_brute(F2, e1, e2) == 1
    assert lemma1_brute_multi(F2, [e1, e2, e3]) == 2


def test_avoidance_disjoint_blocks():
    u = subspace_from_vectors(F2, [(1, 0, 0)], 3)
    v = subspace_from_vectors(F2, [(0, 1, 0), (0, 0, 1)], 3)
    assert lemma1_brute(F2, u, v) == 1
    u4 = subspace_from_vectors(F2, [(1, 0, 0, 0), (0, 1, 0, 0)], 4)
    v4 = subspace_from_vectors(F2, [(0, 0, 1, 0), (0, 0, 0, 1)], 4)
    assert lemma1_brute(F2, u4, v4) == 2


def test_avoidance_matches_dimension_count():
    rng = random.Random(77)
    for field, m in ((F2, 4), (F3, 3)):
        for _ in range(12):
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
            d = intersection(field, u, v).dim
            assert lemma1_brute(field, u, v) == lemma1_dim(u.dim, v.dim, d)


def test_avoidance_resource_cap():
    m = 12
    u = subspace_from_vectors(F2, [tuple(int(j == i) for j in range(m)) for i in range(6)], m)
    v = subspace_from_vectors(F2, [tuple(int(j == i) for j in range(m)) for i in range(6, 12)], m)
    with pytest.raises(ResourceCapError):
        lemma1_brute(F2, u, v)
    with pytest.raises(ResourceCapError):
        lemma1_brute_multi(F2, [_axis(F2, 0, 3), _axis(F2, 1, 3)], max_enum=2)


def test_avoidance_runs_over_extension_fields():
    """Every pair of subspaces of GF(4)^m, m <= 3, and GF(9)^m, m <= 2."""
    for field, top in ((F4, 3), (F9, 2)):
        for m in range(1, top + 1):
            subs = [
                sub for r in range(m + 1) for sub in enumerate_subspaces(field, m, r)
            ]
            for u in subs:
                for v in subs:
                    d = intersection(field, u, v).dim
                    expect = lemma1_dim(u.dim, v.dim, d)
                    assert lemma1_brute(field, u, v) == expect, (u, v)
                    w = lemma1_witness(field, u, v)
                    assert w.dim == expect
                    assert intersection(field, w, u).dim == 0
                    assert intersection(field, w, v).dim == 0


def test_avoidance_input_validation():
    with pytest.raises(ValueError):
        lemma1_brute_multi(F2, [])
    with pytest.raises(ValueError):
        lemma1_brute_multi(F2, [_axis(F2, 0, 2), _axis(F2, 0, 3)])
