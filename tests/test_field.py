import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ghw.field import (
    Field,
    _op_tables,
    field_new,
    is_prime,
    matmul,
    smallest_irreducible,
)

# every field with q <= 16, as (p, e)
SMALL_FIELDS = [(p, e) for p in (2, 3, 5, 7, 11, 13) for e in (1, 2, 3, 4) if p**e <= 16]


def test_is_prime_small_values():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23}
    for n in range(25):
        assert is_prime(n) == (n in primes)


def test_rejects_composite_characteristic():
    with pytest.raises(ValueError):
        field_new(4)
    with pytest.raises(ValueError):
        field_new(1)
    with pytest.raises(ValueError):
        Field(2, 0)


def test_rejects_oversized_field():
    with pytest.raises(ValueError):
        field_new(2, 17)


def test_canonical_moduli():
    # pinned so element encodings never drift between runs; ties in the
    # constant term break on the next coefficient up, so degree 3 over
    # GF(2) picks 1 + x^2 + x^3 over 1 + x + x^3
    assert field_new(2).modulus == (0, 1)
    assert field_new(2, 2).modulus == (1, 1, 1)
    assert field_new(2, 3).modulus == (1, 0, 1, 1)
    assert field_new(3, 2).modulus == (1, 0, 1)


def test_gf4_multiplication_table():
    f = field_new(2, 2)
    # codes: 0, 1, then x, x + 1
    assert f.mul(2, 2) == 3
    assert f.mul(2, 3) == 1
    assert f.mul(3, 3) == 2
    assert f.add(2, 3) == 1
    assert f.add(2, 2) == 0


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (5, 1), (2, 2), (2, 3), (3, 2)])
def test_inverses(p, e):
    f = field_new(p, e)
    for a in f.elements():
        if a == 0:
            with pytest.raises(ZeroDivisionError):
                f.inv(a)
        else:
            assert f.mul(a, f.inv(a)) == 1


@pytest.mark.parametrize("p,e", [(2, 3), (3, 2)])
def test_digit_roundtrip(p, e):
    f = field_new(p, e)
    for a in f.elements():
        assert f.encode(f.digits(a)) == a


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8))
def test_gf9_ring_axioms(a, b, c):
    f = field_new(3, 2)
    assert f.add(a, b) == f.add(b, a)
    assert f.mul(a, b) == f.mul(b, a)
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.add(a, f.neg(a)) == 0
    assert f.sub(a, b) == f.add(a, f.neg(b))


def test_smallest_irreducible_really_is_irreducible():
    # x^3 + 1 factors over F_2, so the search must skip past it
    mod = smallest_irreducible(2, 3)
    assert mod[0] != 0
    f = field_new(2, 3)
    for a in range(2, 8):
        order = 1
        x = a
        while x != 1:
            x = f.mul(x, a)
            order += 1
        assert 7 % order == 0  # nonzero elements form a group of order q - 1


@pytest.mark.parametrize("p,e", SMALL_FIELDS)
def test_op_tables_match_scalar_arithmetic(p, e):
    f = field_new(p, e)
    digits, mats = _op_tables(p, e)
    assert digits.shape == (f.q, e) and mats.shape == (f.q, e, e)
    for a in f.elements():
        assert tuple(digits[a]) == f.digits(a)
        for b in f.elements():
            assert tuple(mats[a] @ digits[b] % p) == f.digits(f.mul(a, b))


def test_op_tables_make_no_scalar_calls(monkeypatch):
    """The tables of GF(2^10) come from vectorised shift-and-reduce, not
    from 2 q^2 calls into Field."""

    def refuse(*args):
        raise AssertionError("scalar field call while building the tables")

    expect = [(a, b, Field(2, 10).mul(a, b)) for a, b in ((3, 5), (1023, 1023), (512, 2))]
    with monkeypatch.context() as patch:
        patch.setattr(Field, "add", refuse)
        patch.setattr(Field, "mul", refuse)
        digits, mats = _op_tables.__wrapped__(2, 10)
    for a, b, ab in expect:
        assert np.array_equal(mats[a] @ digits[b] % 2, digits[ab])


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (2, 3), (3, 2), (2, 4)])
def test_matmul_matches_scalar_sums(p, e):
    f = field_new(p, e)
    rng = np.random.default_rng(p * 10 + e)
    a = rng.integers(0, f.q, (2, 3, 4))
    b = rng.integers(0, f.q, (4, 5))
    got = matmul(f, a, b)
    assert got.shape == (2, 3, 5)
    for i, j in np.ndindex(2, 3):
        for l in range(5):
            want = 0
            for s in range(4):
                want = f.add(want, f.mul(int(a[i, j, s]), int(b[s, l])))
            assert got[i, j, l] == want


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (2, 3), (3, 2), (2, 4)])
def test_matmul_with_a_batched_right_operand_matches_scalar_sums(p, e):
    f = field_new(p, e)
    rng = np.random.default_rng(p * 10 + e + 1)
    a = rng.integers(0, f.q, (3, 2, 4))
    b = rng.integers(0, f.q, (3, 4, 5))
    got = matmul(f, a, b)
    assert got.shape == (3, 2, 5)
    for i, j, l in np.ndindex(3, 2, 5):
        want = 0
        for s in range(4):
            want = f.add(want, f.mul(int(a[i, j, s]), int(b[i, s, l])))
        assert got[i, j, l] == want
    # an unbatched left operand broadcasts against every right one
    shared = matmul(f, a[0], b)
    for i in range(3):
        assert np.array_equal(shared[i], matmul(f, a[0], b[i]))


@pytest.mark.parametrize("p,e", [(2, 4), (3, 6)], ids=["q16", "q729"])
def test_matmul_holds_the_result_and_one_digit(p, e):
    """Beyond its result a call holds one reused digit array and the
    operands' F_p forms, so its peak stays within 2.5 result sizes; a
    fresh array per digit peaks above 3 at these degrees."""
    f = field_new(p, e)
    _op_tables(p, e)  # the cached tables are not part of the call
    rng = np.random.default_rng(e)
    a = rng.integers(0, f.q, (256, 2, 3))
    b = rng.integers(0, f.q, (3, 4096))
    tracemalloc.start()
    try:
        out = matmul(f, a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * out.nbytes, peak / out.nbytes
