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
why one per orbit suffices).  They are not a fixed mixed radix, because
free cells run row major across columns and a column's choices depend on
whether it already has its lead.  A column with a free cells still to
fill has q^a fillings once it has its lead and 1 + (q^a - 1)/(q - 1)
before (all zero, or a first nonzero of 1 and anything after), and a
state's count of completions is the product over its columns.  So:

- the layout also records each pivot set's representative count and
  where its first representative falls (``representative_count`` gives
  the total in closed form, a cross-check as the Gaussian binomial is);
- unranking walks the cells row major for every row at once: a column
  with its lead takes digit rank // (rest q^(a-1)), one without takes 0
  or 1 by comparing rank with rest (1 + (q^(a-1) - 1)/(q - 1)), rest
  being the other columns' completions (``_unrank_representatives``);
- a scalar walk over a canonical number's digits counts the
  representatives below it, which maps a canonical range to the range of
  representatives it holds (``_representatives_below``), so the walk keeps
  its ranges in canonical numbers and only the rows built shrink.

At q = 2 both counts are 2^a and every basis is a representative.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
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
    """Where each pivot set sits in the canonical order of r-by-m bases,
    and among its column-orbit representatives.

    Returns (firsts, blocks, reps): firsts[i] is the index of the first
    basis with the i-th pivot set and the last entry is the total count;
    blocks[i] is (pivots, free cells), the free cells row major; reps is
    firsts counted in representatives, one pivot set holding the product
    of ``_led`` over its columns' free cell counts.  At q = 2 every basis
    is a representative and reps equals firsts.
    """
    firsts, reps = [0], [0]
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
        columns = Counter(j for _, j in free).values()
        reps.append(reps[-1] + math.prod(_led(q, a) for a in columns))
    assert firsts[-1] == gaussian_binomial(m, r, q)
    assert reps[-1] == representative_count(q, m, r)
    return tuple(firsts), tuple(blocks), tuple(reps)


def _representatives_below(q: int, m: int, r: int, x: int) -> int:
    """How many representatives come before canonical basis number x.

    Walks x's free-cell digits, most significant first, adding the
    representatives that share the digits so far and take a smaller one
    here.  A column that has its lead takes any digit and leaves q^(a-1)
    fillings of its a - 1 later cells; one without takes 0 (``_led`` of
    a - 1 fillings) or 1 (q^(a-1)), and a larger digit ends the walk,
    since no representative shares that prefix.
    """
    firsts, blocks, reps = _bases_layout(q, m, r)
    if x == 0:
        return 0
    if x == firsts[-1]:
        return reps[-1]
    block = bisect_right(firsts, x) - 1
    free = blocks[block][1]
    code = x - firsts[block]
    below, ahead = reps[block], reps[block + 1] - reps[block]
    left = Counter(j for _, j in free)
    led = set()
    for idx, (_, j) in enumerate(free):
        digit = code // q ** (len(free) - 1 - idx) % q
        a = left[j]
        left[j] -= 1
        if j in led:
            ahead //= q  # q^(a-1) fillings of this column after each digit
            below += digit * ahead
            continue
        rest = ahead // _led(q, a)
        if digit == 0:
            ahead = rest * _led(q, a - 1)
            continue
        below += rest * _led(q, a - 1)
        if digit > 1:
            return below + rest * q ** (a - 1)
        led.add(j)
        ahead = rest * q ** (a - 1)
    return below


def _unrank_representatives(q: int, free, ahead: int, ranks, rows):
    """Fill the free cells of ``rows`` with the representatives numbered
    ``ranks`` among the ``ahead`` of one pivot set, the walk of
    ``_representatives_below`` run backwards for every row at once."""
    left = Counter(j for _, j in free)
    led = np.zeros((len(ranks), rows.shape[2]), dtype=bool)
    ranks = ranks.copy()
    ahead = np.full(len(ranks), ahead, dtype=np.int64)
    for i, j in free:
        a = left[j]
        left[j] -= 1
        lead = led[:, j]
        rest = ahead // np.where(lead, q**a, _led(q, a))
        after = rest * q ** (a - 1)  # fillings after each digit, once led
        zeros = rest * _led(q, a - 1)  # fillings after a leading 0
        digit = np.where(lead, ranks // after, ranks >= zeros)
        ranks -= np.where(lead, digit * after, digit * zeros)
        lead |= digit != 0
        ahead = np.where(lead, after, zeros)
        rows[:, i, j] = digit


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
    firsts, blocks, reps = _bases_layout(q, m, r)
    if not 0 <= start <= stop <= firsts[-1]:
        raise ValueError(f"range {start}..{stop} outside 0..{firsts[-1]}")
    represent = orbits and q > 2
    if represent:  # from here on, numbers count representatives
        firsts = reps
        start = _representatives_below(q, m, r, start)
        stop = _representatives_below(q, m, r, stop)
    out = np.zeros((stop - start, r, m), dtype=np.int64)
    block = bisect_right(firsts, start) - 1
    pos = start
    while pos < stop:
        first = firsts[block]
        end = min(stop, firsts[block + 1])
        rows = out[pos - start : end - start]
        pivots, free = blocks[block]
        for i, p in enumerate(pivots):
            rows[:, i, p] = 1
        codes = np.arange(pos - first, end - first, dtype=np.int64)
        if represent:
            _unrank_representatives(q, free, firsts[block + 1] - first, codes, rows)
        else:
            for idx, (i, j) in enumerate(free):
                x = len(free) - 1 - idx
                rows[:, i, j] = (codes >> x) & 1 if q == 2 else (codes // q**x) % q
        pos = end
        block += 1
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
