import hashlib
import random
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ghw import linalg
from ghw.config import ResourceCapError
from ghw.field import field_new
from ghw.linalg import (
    _CHUNK,
    _CHUNK_BYTES,
    basis_chunks,
    chunk_rows,
    codes_to_matrix,
    dual,
    enumerate_subspaces,
    gaussian_binomial,
    intersection,
    line_numbers,
    null_space,
    representative_count,
    rref,
    subspace_bases_array,
    subspace_from_vectors,
    sum_space,
    support,
)

F2 = field_new(2)
F3 = field_new(3)
F4 = field_new(2, 2)


# ---- row reduction ----------------------------------------------------


def test_rref_known_matrix():
    # determinant 1 mod 3, so the reduction must reach the identity
    rows, rank, pivots = rref(F3, [(1, 2, 1), (2, 1, 0), (1, 1, 1)])
    assert rank == 3
    assert pivots == (0, 1, 2)
    assert rows == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_rref_scalar_multiple_row():
    # the second row is twice the first, so only two pivots survive
    rows, rank, pivots = rref(F3, [(1, 2, 1), (2, 1, 2), (0, 0, 1)])
    assert rank == 2
    assert pivots == (0, 2)
    assert rows == ((1, 2, 0), (0, 0, 1))


def test_rref_drops_dependent_rows():
    rows, rank, pivots = rref(F2, [(1, 1, 0), (0, 1, 1), (1, 0, 1)])
    assert rank == 2
    assert pivots == (0, 1)
    assert rows == ((1, 0, 1), (0, 1, 1))


def test_rref_empty_and_zero():
    assert rref(F2, []) == ((), 0, ())
    assert rref(F2, [(0, 0), (0, 0)]) == ((), 0, ())


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(*[st.integers(0, 2)] * 4),
        min_size=1,
        max_size=5,
    )
)
def test_rref_idempotent_over_gf3(rows):
    reduced, rank, pivots = rref(F3, rows)
    assert len(pivots) == rank == len(reduced)
    again, rank2, pivots2 = rref(F3, reduced)
    assert (again, rank2, pivots2) == (reduced, rank, pivots)
    for i, p in enumerate(pivots):
        assert reduced[i][p] == 1
        assert all(reduced[j][p] == 0 for j in range(rank) if j != i)


# ---- subspace algebra -------------------------------------------------


def test_null_space_annihilates():
    rows = [(1, 1, 0, 1), (0, 1, 1, 0)]
    ker = null_space(F2, rows, 4)
    assert ker.dim == 2
    for v in ker.basis:
        for row in rows:
            assert sum(a * b for a, b in zip(row, v)) % 2 == 0


def test_dual_is_involutive():
    rng = random.Random(7)
    for _ in range(20):
        vecs = [tuple(rng.randrange(3) for _ in range(4)) for _ in range(2)]
        s = subspace_from_vectors(F3, vecs, 4)
        assert dual(F3, dual(F3, s)) == s
        assert dual(F3, s).dim == 4 - s.dim


def test_intersection_and_sum_dimensions():
    rng = random.Random(11)
    for _ in range(30):
        u = subspace_from_vectors(
            F3, [tuple(rng.randrange(3) for _ in range(5)) for _ in range(2)], 5
        )
        v = subspace_from_vectors(
            F3, [tuple(rng.randrange(3) for _ in range(5)) for _ in range(2)], 5
        )
        inter = intersection(F3, u, v)
        total = sum_space(F3, u, v)
        assert u.dim + v.dim == inter.dim + total.dim
        for w in inter.basis:  # in both: adding w leaves the rank alone
            assert rref(F3, u.basis + (w,))[1] == u.dim
            assert rref(F3, v.basis + (w,))[1] == v.dim


def test_intersection_over_extension_field():
    u = subspace_from_vectors(F4, [(1, 0, 2), (0, 1, 3)], 3)
    v = subspace_from_vectors(F4, [(1, 0, 2)], 3)
    inter = intersection(F4, u, v)
    assert inter == v


def test_support_is_one_based():
    assert support((0, 1, 0, 2)) == {2, 4}
    assert support((0, 0)) == frozenset()


@pytest.mark.parametrize("q, m", [(2, 63), (2, 64), (2, 65), (3, 41), (5, 30)])
def test_codes_decode_at_any_width(q, m):
    """Digits come off least significant first, so a small code decodes
    to leading zeros however far q^(m-1) lies past 2^63."""
    codes = [0, 1, q, q**2 - 1]
    want = [[0] * (m - 2) + [c // q, c % q] for c in codes]
    assert codes_to_matrix(codes, q, m).tolist() == want
    assert codes_to_matrix([2**63 - 1], 2, 65).tolist() == [[0, 0] + [1] * 63]


# ---- counting and enumeration -----------------------------------------


def test_gaussian_binomial_values():
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(6, 3, 3) == 33880
    assert gaussian_binomial(5, 0, 2) == 1
    assert gaussian_binomial(3, 4, 2) == 0
    for m in range(1, 7):
        for r in range(m + 1):
            assert gaussian_binomial(m, r, 3) == gaussian_binomial(m, m - r, 3)


def test_enumeration_order_is_pinned():
    first = [s.basis for s in enumerate_subspaces(F2, 2, 1)]
    assert first == [((1, 0),), ((1, 1),), ((0, 1),)]


def test_enumerated_subspaces_are_canonical_and_distinct():
    for r in range(5):
        seen = set()
        for s in enumerate_subspaces(F2, 4, r):
            assert s.dim == r and s.ambient == 4
            reduced, rank, pivots = rref(F2, s.basis)
            assert reduced == s.basis and pivots == s.pivots
            seen.add(s.basis)
        assert len(seen) == gaussian_binomial(4, r, 2)


def test_enumeration_respects_cap():
    with pytest.raises(ResourceCapError):
        list(enumerate_subspaces(F2, 5, 2, max_enum=10))


def test_bases_array_bytes_are_pinned():
    """Every full range for q <= 5 and small m, hashed against the digest
    taken when ranks were still built as one array."""
    digest = hashlib.sha256()
    for q in (2, 3, 4, 5):
        for m in range(0, 7 if q <= 3 else 5):
            for r in range(m + 1):
                digest.update(f"{q},{m},{r}".encode())
                bases = subspace_bases_array(q, m, r, 0, gaussian_binomial(m, r, q))
                assert bases.dtype == np.int64
                digest.update(np.ascontiguousarray(bases).tobytes())
    assert digest.hexdigest() == (
        "66ec44419de34184e491170a6ac52cf929e06d933d96f1caf0272503c49bb4b3"
    )


def test_bases_array_at_q2_counts_its_free_cells_in_binary():
    """Every rank at q = 2, m <= 7: the free cells, filled by bit shifts,
    hold the binary digits of each basis's number within its pivot set,
    most significant first, as ``product`` lists them."""
    for m in range(8):
        for r in range(m + 1):
            want = []
            for pivots in combinations(range(m), r):
                free = [(i, j) for i in range(r) for j in range(pivots[i] + 1, m) if j not in pivots]
                for digits in product((0, 1), repeat=len(free)):
                    basis = np.zeros((r, m), dtype=np.int64)
                    basis[range(r), pivots] = 1
                    for (i, j), x in zip(free, digits):
                        basis[i, j] = x
                    want.append(basis)
            got = subspace_bases_array(2, m, r, 0, gaussian_binomial(m, r, 2))
            assert np.array_equal(got, np.array(want)), (m, r)


def test_bases_array_ranges_split_and_are_frozen():
    rng = random.Random(5)
    for q, m, r in ((2, 6, 3), (3, 5, 2), (4, 4, 2), (3, 3, 0), (2, 5, 5)):
        total = gaussian_binomial(m, r, q)
        whole = subspace_bases_array(q, m, r, 0, total)
        cuts = sorted(rng.randrange(total + 1) for _ in range(6))
        pieces = [
            subspace_bases_array(q, m, r, a, b)
            for a, b in zip([0] + cuts, cuts + [total])
        ]
        assert np.array_equal(np.concatenate(pieces), whole)
        for piece in pieces:
            assert piece.shape[1:] == (r, m)
            if piece.size:
                with pytest.raises(ValueError):
                    piece[0, 0, 0] = 1
    with pytest.raises(ValueError):
        subspace_bases_array(2, 4, 2, 0, gaussian_binomial(4, 2, 2) + 1)


def _leads_with_one(basis) -> bool:
    """Is every column's first nonzero entry element code 1 (an all-zero
    column passes)?"""
    return all(next((x for x in column if x), 1) == 1 for column in zip(*basis))


@pytest.mark.parametrize(
    "q, top", [(3, 5), (4, 5), (5, 5), (7, 4), (8, 4), (9, 4)], ids=lambda v: str(v)
)
def test_orbit_bases_are_the_canonical_ones_leading_with_one(q, top):
    """Every rank at m <= top: orbits=True builds exactly the canonical
    bases whose columns lead with code 1, in canonical order, as many as
    representative_count says, and ranges of 1, 7 and 37 canonical bases
    concatenate to the same rows.  On one rank with a column of two free
    cells, every window [a, b) of canonical numbers (inside one pivot set,
    across pivot sets, or holding no representative) builds the filter of
    its plain range."""
    for m in range(top + 1):
        for r in range(m + 1):
            total = gaussian_binomial(m, r, q)
            whole = subspace_bases_array(q, m, r, 0, total)
            want = [b for b in whole.tolist() if _leads_with_one(b)]
            got = subspace_bases_array(q, m, r, 0, total, orbits=True)
            assert got.shape == (len(want), r, m)
            assert got.tolist() == want, (m, r)
            assert len(want) == representative_count(q, m, r)
            with pytest.raises(ValueError):
                got[..., :1] = 1
            for step in (1, 7, 37):
                pieces = [
                    subspace_bases_array(q, m, r, a, min(a + step, total), orbits=True)
                    for a in range(0, total, step)
                ]
                assert all(piece.shape[1:] == (r, m) for piece in pieces)
                assert np.concatenate(pieces).tolist() == want, (m, r, step)
    m, r = (4, 2) if q == 3 else (3, 2)  # 130 bases at q = 3
    total = gaussian_binomial(m, r, q)
    whole = subspace_bases_array(q, m, r, 0, total).tolist()
    keep = [_leads_with_one(b) for b in whole]
    for a in range(total):
        for b in range(a + 1, total + 1):
            got = subspace_bases_array(q, m, r, a, b, orbits=True)
            assert got.tolist() == [x for x, k in zip(whole[a:b], keep[a:b]) if k], (a, b)


@pytest.mark.parametrize("q, m, r", [(3, 66, 1), (5, 70, 1), (3, 66, 2)])
def test_orbit_bases_past_column_63(q, m, r):
    """The last 13 canonical bases of a rank wider than 64 columns: the
    orbit rows are the filter of the plain ones, so no column's lead is
    lost past bit 63."""
    total = gaussian_binomial(m, r, q)
    plain = subspace_bases_array(q, m, r, total - 13, total).tolist()
    got = subspace_bases_array(q, m, r, total - 13, total, orbits=True).tolist()
    assert got == [b for b in plain if _leads_with_one(b)]
    assert got


def test_a_dead_prefix_ends_only_empty_expansions(monkeypatch):
    """Every range ``basis_chunks(q, m, r, orbits=True)`` hands the
    expansion for q = 3, 4, 5 and m <= 6: where the digits shared by lo
    and hi - 1 end it early, the full expansion holds no representative,
    and everywhere the codes are those of the full expansion."""
    visited = []
    expand = linalg._representative_codes

    def record(q, free, lo, hi):
        visited.append((q, free, lo, hi))
        return expand(q, free, lo, hi)

    monkeypatch.setattr("ghw.linalg._representative_codes", record)
    for q in (3, 4, 5):
        for m in range(1, 7):
            for r in range(m + 1):
                linalg.subspace_bases_array.cache_clear()
                for _ in basis_chunks(q, m, r, orbits=True):
                    pass
    monkeypatch.undo()
    fired = [linalg._dead_prefix(*call) for call in visited]
    got = [expand(*call) for call in visited]
    monkeypatch.setattr("ghw.linalg._dead_prefix", lambda *args: False)
    full = [expand(*call) for call in visited]
    for call, dead, codes, want in zip(visited, fired, got, full):
        assert not (dead and len(want)), call
        assert np.array_equal(codes, want), call
    assert (len(visited), sum(fired)) == (1392, 795)


def test_orbit_bases_at_q2_are_every_basis():
    for m in range(7):
        for r in range(m + 1):
            total = gaussian_binomial(m, r, 2)
            for a, b in ((0, total), (total // 3, total // 2)):
                assert np.array_equal(
                    subspace_bases_array(2, m, r, a, b, orbits=True),
                    subspace_bases_array(2, m, r, a, b),
                )
            assert representative_count(2, m, r) == total


def test_chunk_rows_bound_rows_and_bytes():
    assert chunk_rows(0) == chunk_rows(8) == _CHUNK  # an empty scanned side
    assert chunk_rows(8 * 530) == 3956  # a rank-2 scoring buffer over 265 vectors
    assert chunk_rows(8 * 131041) == 16
    assert chunk_rows(_CHUNK_BYTES + 1) == 1


@pytest.mark.parametrize(
    "q, m, r, row_bytes",
    [
        (2, 6, 3, 8 * 131041),  # 16 rows a range, 88 ranges
        (2, 7, 3, 0),  # _CHUNK rows, the last range short
        (3, 5, 2, _CHUNK_BYTES // 100),
        (4, 4, 2, _CHUNK_BYTES // 50),
        (3, 3, 0, 0),  # one empty basis
    ],
)
def test_basis_chunks_walk_the_rank_once_in_order(q, m, r, row_bytes):
    """Every canonical basis once, in order, in ranges of chunk_rows(row_bytes)
    canonical numbers, each range starting at the number of its first basis."""
    total = gaussian_binomial(m, r, q)
    step = chunk_rows(row_bytes)
    starts, pieces = zip(*basis_chunks(q, m, r, row_bytes))
    assert starts == tuple(range(0, total, step))
    assert [len(piece) for piece in pieces] == [min(step, total - s) for s in starts]
    assert np.array_equal(np.concatenate(pieces), subspace_bases_array(q, m, r, 0, total))


@pytest.mark.parametrize("q, m, r", [(3, 5, 2), (4, 4, 2), (5, 4, 3), (2, 6, 3)])
def test_orbit_chunks_concatenate_to_the_ranks_representatives(q, m, r):
    """With orbits the walk keeps its canonical ranges, builds only their
    representatives and skips exactly the ranges that hold none."""
    total = gaussian_binomial(m, r, q)
    for row_bytes in (0, _CHUNK_BYTES // 7, _CHUNK_BYTES):  # 4096, 7 and 1 rows a range
        step = chunk_rows(row_bytes)
        starts, pieces = zip(*basis_chunks(q, m, r, row_bytes, orbits=True))
        held = [
            a
            for a in range(0, total, step)
            if len(subspace_bases_array(q, m, r, a, min(a + step, total), orbits=True))
        ]
        assert list(starts) == held
        assert np.array_equal(
            np.concatenate(pieces), subspace_bases_array(q, m, r, 0, total, orbits=True)
        )


@pytest.mark.parametrize("q", [2, 3, 4])
def test_line_numbers_invert_the_order_of_rank_one(q):
    for m in range(1, 6):
        total = gaussian_binomial(m, 1, q)
        lines = subspace_bases_array(q, m, 1, 0, total)  # (total, 1, m)
        assert line_numbers(lines[:, 0], q).tolist() == list(range(total))
        assert line_numbers(lines, q).tolist() == [[i] for i in range(total)]
