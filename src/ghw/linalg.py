"""Row reduction, subspace objects, and canonical subspace enumeration.

Vectors are tuples of element codes.  A subspace is stored by its reduced
row echelon basis, which makes equality a tuple comparison and gives every
subspace of F_q^m exactly one representation.

Enumeration order matters for reproducibility: subspaces stream in
(pivot-column set, free-entry code) order, pivot sets lexicographic,
free entries filled row major with the earliest cell most significant.
The count per pivot set is a power of q and the total is the Gaussian
binomial, which doubles as a cheap cross-check.

Bases are never built a whole rank at once.  A small per-(q, m, r) layout
records where each pivot set starts in that order, so any range of basis
numbers can be filled directly, and only the most recent few ranges stay
cached.  Every walk over a rank (the search, the oracle's support table
and subcodes, the avoidance oracle and ``enumerate_subspaces``) is one
generator, ``basis_chunks``: it yields the rank in ranges of at most
``chunk_rows(row_bytes)`` canonical numbers, ``row_bytes`` being the
caller's work per row, so that work stays within ``_CHUNK_BYTES`` and no
range exceeds ``_CHUNK`` rows.  ``line_numbers`` inverts the order of
rank 1, mapping a monic row to its canonical number.

The search asks only for column-orbit representatives: the bases whose
every column has element code 1 as its first nonzero entry (code.py says
why one per orbit suffices).  The walk keeps its ranges in canonical
numbers and only the rows built shrink.  For each pivot set a range
meets, ``_representative_codes`` expands the free cells row major, most
significant first: a column without its lead takes digit 0 or 1, one
that has it takes any digit, and a prefix is dropped as soon as none of
its completions falls in the range, so the work follows the range, not
the pivot set; a range whose codes all share a leading digit that no
representative has (``_dead_prefix``) is empty before any expansion.
The codes kept are filled into rows by the same digit fill as every
other basis.  ``representative_count`` gives their total in closed
form, a cross-check as the Gaussian binomial is: a column with a free
cells has q^a fillings once it has its lead and 1 + (q^a - 1)/(q - 1)
before.  At q = 2 every basis is a representative.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .config import check_cap
from .field import Field, matmul

# rows per candidate range: basis_chunks, the one walk over a rank's bases,
# yields ranges of at most this many, which bounds their memory
_CHUNK = 4096
# bytes one range's per-row work may take; see chunk_rows
_CHUNK_BYTES = 16 * 2**20


def chunk_rows(row_bytes: int) -> int:
    """Rows per range when each row costs ``row_bytes`` of scratch memory:
    at most ``_CHUNK`` rows and ``_CHUNK_BYTES`` bytes, and at least one row."""
    return max(1, min(_CHUNK, _CHUNK_BYTES // max(1, row_bytes)))


@dataclass(frozen=True)
class Subspace:
    """A subspace of F_q^ambient held as a reduced row echelon basis."""

    ambient: int
    dim: int
    basis: tuple
    pivots: tuple

    def __iter__(self):
        return iter(self.basis)


def codes_to_matrix(codes, q: int, m: int):
    """Decode integer codes into an (N, m) int64 matrix of element codes,
    the first column the most significant digit.  The digits are peeled
    off least significant first, so no power of q past the codes is ever
    formed and nothing wraps at any m."""
    rest = np.asarray(codes, dtype=np.int64).reshape(-1)
    out = np.empty((len(rest), m), dtype=np.int64)
    for j in range(m - 1, -1, -1):
        rest, out[:, j] = np.divmod(rest, q)
    return out


def span_vectors(field: Field, basis) -> np.ndarray:
    """Every nonzero combination of the rows of an (r, m) basis over GF(q).

    Returns a (q^r - 1, m) int64 array of element codes, one row per
    nonzero coefficient vector in ascending code order; for independent
    rows that is each nonzero vector of the span once.
    """
    basis = np.asarray(basis, dtype=np.int64)
    r = len(basis)
    return matmul(field, codes_to_matrix(range(1, field.q**r), field.q, r), basis)


def rref(field: Field, rows):
    """Reduced row echelon form of an iterable of equal-length vectors.

    Returns (rows, rank, pivots) where rows contains only the nonzero
    rows.  An empty input (or all-zero input) gives ((), 0, ()).
    """
    mat = [list(row) for row in rows]
    if not mat:
        return (), 0, ()
    ncols = len(mat[0])
    pivots = []
    rank = 0
    for col in range(ncols):
        sel = next((i for i in range(rank, len(mat)) if mat[i][col] != 0), None)
        if sel is None:
            continue
        mat[rank], mat[sel] = mat[sel], mat[rank]
        lead = mat[rank][col]
        if lead != 1:
            inv = field.inv(lead)
            mat[rank] = [field.mul(inv, x) for x in mat[rank]]
        for i in range(len(mat)):
            c = mat[i][col]
            if i != rank and c != 0:
                mat[i] = [
                    field.sub(x, field.mul(c, y)) for x, y in zip(mat[i], mat[rank])
                ]
        pivots.append(col)
        rank += 1
        if rank == len(mat):
            break
    out = tuple(tuple(row) for row in mat[:rank])
    return out, rank, tuple(pivots)


def subspace_from_vectors(field: Field, vectors, ambient: int) -> Subspace:
    """Span of the given vectors, canonicalized."""
    basis, rank, pivots = rref(field, vectors)
    return Subspace(ambient=ambient, dim=rank, basis=basis, pivots=pivots)


def subspace_from_rref(basis: np.ndarray) -> Subspace:
    """The subspace of an (r, m) array that is already a canonical RREF
    basis, with no reduction: each pivot is the first nonzero entry of
    its row."""
    r, m = basis.shape
    pivots = tuple(np.argmax(basis != 0, axis=1).tolist())
    return Subspace(m, r, tuple(map(tuple, basis.tolist())), pivots)


def null_space(field: Field, rows, m: int) -> Subspace:
    """Right kernel {x in F_q^m : row . x = 0 for every row}."""
    reduced, rank, pivots = rref(field, rows)
    pivset = set(pivots)
    free = [j for j in range(m) if j not in pivset]
    vectors = []
    for f in free:
        v = [0] * m
        v[f] = 1
        for i, p in enumerate(pivots):
            v[p] = field.neg(reduced[i][f])
        vectors.append(v)
    return subspace_from_vectors(field, vectors, m)


def dual(field: Field, sub: Subspace) -> Subspace:
    """Orthogonal complement under the standard bilinear form."""
    return null_space(field, sub.basis, sub.ambient)


def sum_space(field: Field, a: Subspace, b: Subspace) -> Subspace:
    return subspace_from_vectors(field, a.basis + b.basis, a.ambient)


def intersection(field: Field, a: Subspace, b: Subspace) -> Subspace:
    """Zassenhaus: reduce rows (u|u) for u in A and (v|0) for v in B;
    rows whose left half vanishes carry an intersection basis on the right."""
    m = a.ambient
    block = [tuple(u) + tuple(u) for u in a.basis]
    block += [tuple(v) + (0,) * m for v in b.basis]
    reduced, _, _ = rref(field, block)
    inter = [row[m:] for row in reduced if all(x == 0 for x in row[:m])]
    return subspace_from_vectors(field, inter, m)


def support(v) -> frozenset:
    """1-based coordinates where v is nonzero."""
    return frozenset(i + 1 for i, x in enumerate(v) if x != 0)


def gaussian_binomial(m: int, r: int, q: int) -> int:
    """Number of r-dimensional subspaces of F_q^m, exact.

    Each prefix of the product is itself a Gaussian binomial, so the
    stepwise integer division never truncates.
    """
    if r < 0 or r > m:
        return 0
    count = 1
    for i in range(r):
        count = count * (q ** (m - i) - 1) // (q ** (i + 1) - 1)
    return count


def subspace_count(q: int, m: int, r: int, max_enum=None, what=None) -> int:
    """G(m, r) over GF(q), refused when it exceeds the enumeration cap;
    ``what`` names the objects in the refusal."""
    total = gaussian_binomial(m, r, q)
    if what is None:
        what = f"{r}-dim subspaces of dimension-{m} space"
    check_cap(total, max_enum, what=what)
    return total


def _led(q: int, a: int) -> int:
    """Fillings of a column's last ``a`` free cells before it has its lead:
    all zero, or a first nonzero entry of code 1 and anything after it."""
    return 1 + (q**a - 1) // (q - 1)


def representative_count(q: int, m: int, r: int) -> int:
    """Canonical r-by-m bases over GF(q) whose every column has element
    code 1 as its first nonzero entry: one per column orbit.

    A non-pivot column has one free cell per pivot to its left, so one
    pass over the columns, keyed by the pivots placed so far, sums the
    product of ``_led`` over every pivot set.
    """
    if r < 0 or r > m:
        return 0
    ways = [1] + [0] * r  # ways[t]: column prefixes holding t pivots
    for _ in range(m):
        ways = [ways[t] * _led(q, t) + (ways[t - 1] if t else 0) for t in range(r + 1)]
    return ways[r]


@lru_cache(maxsize=64)
def _bases_layout(q: int, m: int, r: int):
    """Where each pivot set sits in the canonical order of r-by-m bases.

    Returns (firsts, blocks): firsts[i] is the index of the first basis
    with the i-th pivot set and the last entry is the total count;
    blocks[i] is (pivots, free cells), the free cells row major, so a
    basis's number within its pivot set is the code of its free-cell
    digits, the earliest cell most significant.
    """
    firsts = [0]
    blocks = []
    for pivots in combinations(range(m), r):
        pivset = set(pivots)
        free = tuple(
            (i, j)
            for i in range(r)
            for j in range(pivots[i] + 1, m)
            if j not in pivset
        )
        blocks.append((pivots, free))
        firsts.append(firsts[-1] + q ** len(free))
    assert firsts[-1] == gaussian_binomial(m, r, q)
    return tuple(firsts), tuple(blocks)


def _dead_prefix(q: int, free, lo: int, hi: int) -> bool:
    """Does every code in lo..hi-1 fail to be a representative by the
    leading free-cell digits they all share, those of lo and hi - 1: a
    digit >= 2 in a column that has no lead yet?  Scalar, no numpy."""
    led = set()  # columns whose lead the shared digits hold
    for idx, (_, j) in enumerate(free):
        span = q ** (len(free) - 1 - idx)
        digit = lo // span % q
        if digit != (hi - 1) // span % q:
            return False
        if digit >= 2 and j not in led:
            return True
        if digit:
            led.add(j)
    return False


def _representative_codes(q: int, free, lo: int, hi: int) -> np.ndarray:
    """The free-cell codes lo..hi-1 of one pivot set whose every column
    has element code 1 as its first nonzero entry, ascending.

    A range whose shared leading digits already rule it out
    (``_dead_prefix``) is empty at once.  Otherwise this expands the cells
    row major, most significant first: a column without its lead takes
    digit 0 or 1, one that has it takes any digit, and a prefix is dropped
    as soon as none of its completions falls in [lo, hi).  Which columns
    have their lead is one boolean per column, not a bit mask, so columns
    past 63 keep theirs.
    """
    if _dead_prefix(q, free, lo, hi):
        return np.zeros(0, dtype=np.int64)
    codes = np.zeros(1, dtype=np.int64)
    led = np.zeros((1, 1 + max((j for _, j in free), default=0)), dtype=bool)
    digits = np.arange(q)
    for idx, (_, j) in enumerate(free):
        span = q ** (len(free) - 1 - idx)  # completions of each extended prefix
        child = codes[:, None] * q + digits
        inside = (lo // span <= child) & (child <= (hi - 1) // span)
        parent, digit = np.nonzero((led[:, j, None] | (digits < 2)) & inside)
        codes = child[parent, digit]
        led = led[parent]
        led[:, j] |= digit != 0
        if not len(codes):
            break
    return codes


@lru_cache(maxsize=16)
def subspace_bases_array(q: int, m: int, r: int, start: int, stop: int, orbits=False):
    """Canonical r-by-m RREF bases number start..stop-1 over GF(q).

    Shape (stop - start, r, m), int64.  Entries are element codes; the
    construction is purely combinatorial so it serves prime and extension
    fields alike.  ``basis_chunks`` walks a rank in ranges of at most
    ``_CHUNK`` rows, so the memory held here is bounded by the chunk, never
    by the Gaussian binomial.  The array is frozen and shared, callers must not
    write to it.

    With ``orbits`` only the column-orbit representatives among those
    bases are built, in canonical order: the bases whose every column has
    element code 1 as its first nonzero entry.  A range may hold none.
    At q = 2 that is every basis.
    """
    firsts, blocks = _bases_layout(q, m, r)
    if not 0 <= start <= stop <= firsts[-1]:
        raise ValueError(f"range {start}..{stop} outside 0..{firsts[-1]}")
    filled = []  # (block, codes) per pivot set holding rows of the range
    block = bisect_right(firsts, start) - 1
    pos = start
    while pos < stop:
        first = firsts[block]
        end = min(stop, firsts[block + 1])
        if orbits and q > 2:
            codes = _representative_codes(q, blocks[block][1], pos - first, end - first)
        else:
            codes = np.arange(pos - first, end - first, dtype=np.int64)
        if len(codes):
            filled.append((blocks[block], codes))
        pos = end
        block += 1
    out = np.zeros((sum(len(codes) for _, codes in filled), r, m), dtype=np.int64)
    pos = 0
    for (pivots, free), codes in filled:
        rows = out[pos : pos + len(codes)]
        for i, p in enumerate(pivots):
            rows[:, i, p] = 1
        for idx, (i, j) in enumerate(free):
            x = len(free) - 1 - idx
            rows[:, i, j] = (codes >> x) & 1 if q == 2 else (codes // q**x) % q
        pos += len(codes)
    out.setflags(write=False)
    return out


def basis_chunks(q: int, m: int, r: int, row_bytes: int = 0, orbits=False):
    """Walk the canonical r-by-m bases over GF(q) in order: yield
    (start, bases) per range of ``chunk_rows(row_bytes)`` canonical
    numbers, start the number of the range's first basis and bases its
    ``subspace_bases_array``.  With ``orbits`` only the column-orbit
    representatives are built, and a range holding none is skipped."""
    total = gaussian_binomial(m, r, q)
    step = chunk_rows(row_bytes)
    for start in range(0, total, step):
        bases = subspace_bases_array(q, m, r, start, min(start + step, total), orbits=orbits)
        if len(bases):
            yield start, bases


def line_numbers(rows: np.ndarray, q: int) -> np.ndarray:
    """Canonical number of each monic row (last axis) among the 1-dim
    subspaces of F_q^k, the inverse of ``subspace_bases_array(q, k, 1, ...)``:
    a row with pivot p and code c = row . (q^(k-1), ..., 1) is number
    c - q^(k-1-p) + sum_{i<p} q^(k-1-i)."""
    weights = q ** np.arange(rows.shape[-1] - 1, -1, -1, dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(weights)[:-1])) - weights
    return rows @ weights + offsets[np.argmax(rows != 0, axis=-1)]


def enumerate_subspaces(field: Field, m: int, r: int, max_enum=None):
    """Yield every r-dimensional subspace of F_q^m in canonical order.

    Refuses to start when the subspace count exceeds the enumeration cap.
    """
    subspace_count(field.q, m, r, max_enum)
    for _, bases in basis_chunks(field.q, m, r):
        yield from map(subspace_from_rref, bases)
