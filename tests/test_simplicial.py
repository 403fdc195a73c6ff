import random
import tracemalloc
from itertools import combinations, product
from time import perf_counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ghw.field import field_new
from ghw.linalg import codes_to_matrix, dual, rref, subspace_from_vectors
from ghw.simplicial import (
    ComplexSpec,
    cardinality,
    enumerate_members,
    k_space,
    kernel_pivots,
    member,
    member_codes,
    normalize,
    normalize_sets,
    parse_sets,
    restrict,
    union_terms,
)

F2 = field_new(2)
F3 = field_new(3)


# ---- parsing and normalization -----------------------------------------


def test_parse_sets_grammar():
    assert parse_sets("1,2,3;3,4,5") == [[1, 2, 3], [3, 4, 5]]
    assert parse_sets(" 1 , 2 ; 3 ") == [[1, 2], [3]]
    assert parse_sets("7") == [[7]]


@pytest.mark.parametrize("bad", ["", "1,,2", "1;;2", "a,b", "1 2"])
def test_parse_sets_rejects_garbage(bad):
    with pytest.raises(ValueError):
        parse_sets(bad)


def test_normalize_sets_drops_contained_and_sorts():
    kept, dropped = normalize_sets([[3, 4, 5], [2, 1], [4, 3], [1, 2]])
    assert kept == ((1, 2), (3, 4, 5))
    assert (3, 4) in dropped and (1, 2) in dropped


def test_normalize_orders_by_size_then_lex():
    spec = normalize(6, [[2, 3, 4], [1, 2], [1, 5, 6]], False)
    assert spec.sets == ((1, 2), (1, 5, 6), (2, 3, 4))


def test_normalize_validation():
    with pytest.raises(ValueError):
        normalize(3, [], False)
    with pytest.raises(ValueError):
        normalize(3, [[]], False)
    with pytest.raises(ValueError):
        normalize(3, [[4]], False)
    with pytest.raises(ValueError):
        normalize(0, [[1]], False)


def test_normalize_takes_only_integer_coordinates():
    """A coordinate that is not an integer is refused by name, not
    truncated (1.5 would read as 1) nor left to fail in a sort; an integer
    of numpy's type is kept as a Python int."""
    with pytest.raises(ValueError, match=r"^coordinate 1\.5 is not an integer$"):
        normalize(4, [[1.5, 2]], False)
    with pytest.raises(ValueError, match=r"^coordinate '1' is not an integer$"):
        normalize(4, [["1", 2]], False)
    spec = normalize(4, [[np.int64(3), np.int32(1)]], False)
    assert spec.sets == ((1, 3),)
    assert {type(x) for x in spec.sets[0]} == {int}


# ---- membership and counting --------------------------------------------


def test_member_by_support():
    spec = normalize(4, [[1, 2], [2, 3]], False)
    assert member(spec, (0, 0, 0, 0))
    assert member(spec, (1, 1, 0, 0))
    assert member(spec, (0, 1, 1, 0))
    assert not member(spec, (1, 0, 1, 0))
    assert not member(spec, (0, 0, 0, 1))


def test_complement_flips_membership():
    spec = normalize(4, [[1, 2], [2, 3]], False)
    flipped = normalize(4, [[1, 2], [2, 3]], True)
    for v in product(range(2), repeat=4):
        assert member(spec, v) != member(flipped, v)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_membership_is_downward_closed(data):
    m = data.draw(st.integers(2, 5))
    sets = data.draw(
        st.lists(
            st.sets(st.integers(1, m), min_size=1, max_size=m).map(sorted),
            min_size=1,
            max_size=3,
        )
    )
    spec = normalize(m, sets, False)
    v = data.draw(st.tuples(*[st.integers(0, 1)] * m))
    if member(spec, v):
        # zeroing any coordinate only shrinks the support
        for i in range(m):
            w = v[:i] + (0,) + v[i + 1 :]
            assert member(spec, w)


def test_cardinality_matches_enumeration():
    rng = random.Random(23)
    for field in (F2, F3):
        for _ in range(25):
            m = rng.randrange(2, 5)
            sets = [
                rng.sample(range(1, m + 1), rng.randrange(1, m + 1))
                for _ in range(rng.randrange(1, 4))
            ]
            for comp in (False, True):
                spec = normalize(m, sets, comp)
                members = enumerate_members(spec, field)
                assert len(members) == cardinality(spec, field.q)
                assert members == sorted(members)
                assert all(member(spec, v) for v in members)


def _subset_walk(sets):
    """The unmerged inclusion-exclusion terms, the reference: (common
    support as a bitmask, (-1)^(|J|+1)) for every nonempty set J of
    generators."""
    for size in range(1, len(sets) + 1):
        for chosen in combinations(sets, size):
            common = set.intersection(*(set(s) for s in chosen))
            yield sum(1 << (j - 1) for j in common), (-1) ** (size + 1)


def _check_terms_against_the_walk(sets, qs):
    walk = list(_subset_walk(sets))
    terms = union_terms(sets)
    assert all(terms.values()), sets
    for q in qs:
        size = sum(sign * q ** key.bit_count() for key, sign in walk)
        assert sum(c * q ** key.bit_count() for key, c in terms.items()) == size, (sets, q)
        # the search's int64 bound never exceeds the walk's
        old = sum(q ** key.bit_count() for key, _ in walk)
        assert sum(abs(c) * q ** key.bit_count() for key, c in terms.items()) <= old, (sets, q)
    assert len(terms) <= len({key for key, _ in walk}), sets


def test_union_terms_match_the_subset_walk_on_small_antichains():
    """Every antichain of at most four generators for m <= 5."""
    qs = (2, 3, 4, 5, 7)
    for m in range(1, 6):
        subsets = [c for k in range(1, m + 1) for c in combinations(range(1, m + 1), k)]
        for count in range(1, 5):
            for family in combinations(subsets, count):
                if not any(set(a) < set(b) for a in family for b in family):
                    _check_terms_against_the_walk(family, qs)
                    spec = normalize(m, family, False)
                    assert cardinality(spec, 3) == sum(
                        sign * 3 ** key.bit_count() for key, sign in _subset_walk(spec.sets)
                    )


def test_union_terms_match_the_subset_walk_on_random_specs():
    """Up to seven generators, m <= 9, raw (repeated and nested generators
    allowed) and normalized."""
    rng = random.Random(29)
    for _ in range(1500):
        m = rng.randrange(1, 10)
        sets = [
            rng.sample(range(1, m + 1), rng.randrange(1, m + 1))
            for _ in range(rng.randrange(1, 8))
        ]
        q = rng.choice((2, 3, 4, 5, 7))
        _check_terms_against_the_walk(sets, (q,))
        _check_terms_against_the_walk(normalize(m, sets, False).sets, (q,))


def test_cardinality_of_many_singletons_is_fast():
    """22 singletons have 2^22 - 1 generator subsets but 23 distinct
    intersections (the 22 axes and the origin)."""
    spec = normalize(22, [[i] for i in range(1, 23)], False)
    start = perf_counter()
    assert len(union_terms(spec.sets)) == 23
    assert cardinality(spec, 2) == 23
    assert cardinality(normalize(22, spec.sets, True), 3) == 3**22 - 45
    assert perf_counter() - start < 1


def test_emptiness_is_read_off_the_generators():
    """``ComplexSpec.empty`` (complement flag on, [m] a generator) equals
    cardinality 0 on every antichain of at most three generators, m <= 5,
    over GF(2) and GF(3), both flags."""
    for m in range(1, 6):
        subsets = [c for k in range(1, m + 1) for c in combinations(range(1, m + 1), k)]
        for count in range(1, 4):
            for family in combinations(subsets, count):
                if any(set(a) < set(b) for a in family for b in family):
                    continue
                for complement in (False, True):
                    spec = normalize(m, family, complement)
                    for q in (2, 3):
                        assert spec.empty == (cardinality(spec, q) == 0), (spec, q)


def test_union_and_complement_partition_the_space():
    spec = normalize(3, [[1], [2, 3]], False)
    flipped = normalize(3, [[1], [2, 3]], True)
    both = enumerate_members(spec, F3) + enumerate_members(flipped, F3)
    assert len(both) == 27
    assert len(set(both)) == 27


def test_enumeration_order_matches_code_order():
    spec = normalize(2, [[1]], False)
    assert enumerate_members(spec, F2) == [(0, 0), (1, 0)]
    flipped = normalize(2, [[1]], True)
    assert enumerate_members(flipped, F2) == [(0, 1), (1, 1)]


# ---- the orthogonal kernel ----------------------------------------------


def test_k_space_for_union_is_the_leftover_axes():
    spec = normalize(5, [[1, 2], [2, 4]], False)
    ker = k_space(spec, F3)
    assert ker.dim == 2
    assert ker.basis == ((0, 0, 1, 0, 0), (0, 0, 0, 0, 1))


def test_k_space_vanishes_when_union_covers():
    spec = normalize(3, [[1, 2], [2, 3]], False)
    assert k_space(spec, F2).dim == 0


def test_k_space_of_degenerate_complement():
    # over GF(2) with both generators of size m-1, every complement vector
    # has ones at both missing positions, so the span is a hyperplane
    spec = normalize(3, [[1, 2], [2, 3]], True)
    ker = k_space(spec, F2)
    assert ker.dim == 1
    assert ker.basis == ((1, 0, 1),)
    assert rref(F2, ker.basis + ((1, 0, 1),))[1] == ker.dim


def test_k_space_of_generic_complement_is_zero():
    spec = normalize(3, [[1, 2], [2, 3]], True)
    assert k_space(spec, F3).dim == 0
    spec2 = normalize(4, [[1, 2], [2, 3]], True)
    assert k_space(spec2, F2).dim == 0


def _antichains(m, most):
    """Every antichain of at most `most` nonempty subsets of [m], as
    normalized generator tuples: subsets come in (size, lex) order, so a
    family can only fail by an earlier member lying inside a later one."""
    subsets = [c for size in range(1, m + 1) for c in combinations(range(1, m + 1), size)]
    for l in range(1, most + 1):
        for family in combinations(subsets, l):
            if not any(set(a) <= set(b) for a, b in combinations(family, 2)):
                yield family


def test_restrict_reads_d_at_the_coordinates_off_the_kernel_pivots():
    """Every antichain of the kernel-sweep cells (q=2 m=4, 5, 6 with at
    most 4, 3, 2 generators; q=3 m=4, GF(4) m=3 and q=5 m=3 with at most
    3) and of q=2 m=7 with at most 2, both flags, D nonempty: C is the
    columns off the pivots of K, the restricted spec has a zero kernel and
    |D| members, and they are D's members read at C."""
    checked = 0
    for (p, e), m, most in (
        ((2, 1), 4, 4), ((2, 1), 5, 3), ((2, 1), 6, 2), ((2, 1), 7, 2),
        ((3, 1), 4, 3), ((2, 2), 3, 3), ((5, 1), 3, 3),
    ):
        field = field_new(p, e)
        q = field.q
        for sets in _antichains(m, most):
            for complement in (False, True):
                spec = ComplexSpec(m=m, sets=sets, complement=complement)
                if spec.empty:
                    continue
                kernel = k_space(spec, field)
                columns, local = restrict(spec, q)
                k = len(columns)
                assert columns == tuple(j for j in range(m) if j not in kernel.pivots)
                assert local.m == k and k_space(local, field).dim == 0, spec
                assert cardinality(local, q) == cardinality(spec, q), spec
                at_c = codes_to_matrix(member_codes(spec, q), q, m)[:, list(columns)]
                codes = sorted((at_c @ q ** np.arange(k - 1, -1, -1)).tolist())
                assert codes == member_codes(local, q), spec
                checked += 1
    assert checked == 18683


def test_k_space_is_the_dual_of_the_member_span():
    """Every antichain of at most three generators, both flags, against
    the orthogonal complement of the row-reduced members; the pivots the
    search reads off the generators are those of that basis."""
    checked = 0
    plan = ((2, 1, 5), (3, 1, 4), (2, 2, 3), (5, 1, 3), (2, 3, 2), (3, 2, 2))
    for p, e, top in plan:
        field = field_new(p, e)
        for m in range(1, top + 1):
            for sets in _antichains(m, 3):
                for complement in (False, True):
                    spec = ComplexSpec(m=m, sets=sets, complement=complement)
                    members = enumerate_members(spec, field)
                    span = subspace_from_vectors(field, members, m)
                    assert k_space(spec, field) == dual(field, span), (field, spec)
                    assert kernel_pivots(spec, field.q) == k_space(spec, field).pivots, spec
                    checked += 1
    assert checked == 3552


def _member_codes_loop(spec, q):
    """The scalar reference: every member of every generator, one at a
    time, and a complement taken against the set of all q^m codes."""
    m = spec.m
    inside = set()
    for s in spec.sets:
        weights = [q ** (m - pos) for pos in s]
        for digits in product(range(q), repeat=len(s)):
            inside.add(sum(w * d for w, d in zip(weights, digits)))
    return sorted(set(range(q**m)) - inside) if spec.complement else sorted(inside)


def test_member_codes_match_the_scalar_loop():
    """Every antichain of at most three generators, both flags."""
    checked = 0
    for q, top in ((2, 5), (3, 4), (4, 3)):
        for m in range(1, top + 1):
            for sets in _antichains(m, 3):
                for complement in (False, True):
                    spec = ComplexSpec(m=m, sets=sets, complement=complement)
                    codes = member_codes(spec, q)
                    assert type(codes) is list
                    assert all(type(c) is int for c in codes)
                    assert codes == _member_codes_loop(spec, q), (q, spec)
                    checked += 1
    assert checked == 3486


def test_member_codes_refuse_codes_beyond_64_bits():
    with pytest.raises(OverflowError):
        member_codes(normalize(40, [[1, 2]], False), 3)
    # the codes of late coordinates stay small even when q^m does not
    assert member_codes(normalize(40, [[40]], False), 3) == [0, 1, 2]


def test_member_codes_of_a_complement_strike_one_generator_at_a_time():
    """The complement of [18] - {i} over GF(2) is the all-ones vector.  Its
    listing holds the 2^18 mask and one generator's 2^17 codes at a time,
    not all 18 x 2^17 of them at once (36.3 MB traced)."""
    spec = normalize(18, [[j for j in range(1, 19) if j != i] for i in range(1, 19)], True)
    tracemalloc.start()
    try:
        codes = member_codes(spec, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert codes == [2**18 - 1]
    assert peak < 8 * 2**20, peak


def test_k_space_reads_no_members(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("k_space enumerated the defining set")

    monkeypatch.setattr("ghw.simplicial.member_codes", refuse)
    spec = normalize(16, [[1, 2, 3], [3, 4, 5], [5, 6, 1]], True)
    assert k_space(spec, F2).dim == 0
    # over GF(2) the kernel is the even-weight vectors on the positions i
    # whose complement [16] - {i} is a generator
    big = [[j for j in range(1, 17) if j != i] for i in (2, 5, 9)]
    ker = k_space(normalize(16, big, True), F2)
    assert ker.basis == (
        tuple(int(j in (2, 9)) for j in range(1, 17)),
        tuple(int(j in (5, 9)) for j in range(1, 17)),
    )
    assert k_space(normalize(16, big, True), F3).dim == 0


def test_k_space_of_a_plain_spec_needs_no_reduction(monkeypatch):
    """A plain spec's K is the coordinate subspace off the union, and an
    empty D's is F^m: their unit rows are already the canonical basis, so
    no row reduction runs, even at m = 2000.  Nor does one for a q = 2
    complement with a kernel, whose rows e_i + e_t (t = max I) are built
    straight from the pivots, at m = 2000 too."""

    def refuse(*args, **kwargs):
        raise AssertionError("k_space reduced its rows")

    monkeypatch.setattr("ghw.simplicial.subspace_from_vectors", refuse, raising=False)
    monkeypatch.setattr("ghw.linalg.rref", refuse)
    m = 2000
    ker = k_space(normalize(m, [[1, 2]], False), F2)
    assert (ker.ambient, ker.dim, ker.pivots) == (m, m - 2, tuple(range(2, m)))
    assert ker.basis[0] == (0, 0, 1) + (0,) * (m - 3)
    assert ker.basis[-1] == (0,) * (m - 1) + (1,)
    assert k_space(normalize(3, [[1, 2, 3]], True), F3).pivots == (0, 1, 2)
    gens = [[j for j in range(1, m + 1) if j != i] for i in (3, 700, 2000)]
    ker = k_space(normalize(m, gens, True), F2)
    assert (ker.ambient, ker.dim, ker.pivots) == (m, 2, (2, 699))
    for row, i in zip(ker.basis, (3, 700)):
        assert row == tuple(int(j in (i, m)) for j in range(1, m + 1))
    assert k_space(normalize(6, [[1, 2, 4, 5, 6], [1, 2, 3, 4, 5]], True), F2).basis == (
        (0, 0, 1, 0, 0, 1),
    )
