"""Evaluation codes from defining sets, and the subspace-search method
for their generalized Hamming weights.

The code attached to a defining set D in F_q^m is the image of
x -> (x . d for d in D), one coordinate per defining vector, columns in
ascending code order.  Its dimension is k = m minus the dimension of
K = (span D) orthogonal.

The r-dimensional subcodes of the code correspond one to one to the
r-dimensional subspaces of F^m / K (Wei, 1991).  D lies in K-perp, and
for d in K-perp, d is orthogonal to H exactly when it is orthogonal to
H + K, so |D meet H-perp| depends only on H + K.  Let C hold the columns
off the pivots of K's RREF basis: every nonzero vector of K is nonzero at
some pivot, so F^m is K plus the coordinate subspace F^C, and |C| = k.
Each subspace of F^m / K then has exactly one lift H inside F^C, and

    d_r = n - max |D meet H-perp|  over the r-dim H inside F^C.

The search context restates this once as a problem with a zero kernel
(``simplicial.restrict``).  Reading at C is one to one on K-perp, which
holds D, and for H inside F^C, v is orthogonal to H exactly when v
restricted to C is.  So D read at C, a defining set in F^k, has the same
n and the same d_r, and its own kernel is zero.  It is again a union of
coordinate subspaces or the complement of one: without the complement
flag C is the union of the generators, relabeled; with it K is zero
except at q = 2 (see ``restrict``).  From there on the search knows only
F^k.  It walks the G(k, r) canonical bases of F^k, and since
|D meet H-perp| is at most |H-perp| = q^(k-r), the scan of a rank stops
at the first chunk reaching that bound (less one for a complement, which
never holds the zero vector).  C is listed in ascending order, so
canonical order on F^k is canonical order on F^C, a subsequence of
canonical order on F^m: the witness of a rank, the first optimal H in
canonical order, is embedded at C's columns.  Before it is returned,
``_valid_mask`` checks by a rank count that it meets K only in zero.

D is the union U of coordinate subspaces, or its complement under the
complement flag.  The search counts whichever of D and its complement in
F^k is smaller; since |H-perp| = q^(k-r), either count gives
|D meet H-perp|.  It never constructs H-perp itself, and it scores a
chunk of candidate bases by one of two methods, picked per rank
(``_orthogonal_counts``).  The member product counts the scanned side,
the character sum counts U, and ``_search`` turns either count into
|D meet H-perp| once, as q^(k-r) minus it when what was counted lies
outside D.

The member product counts the scanned side directly: v lies in H-perp
exactly when B v = 0 for the basis matrix B of H, so over q > 2 the chunk
is scored by one ``field.matmul`` against the side, the same GF(q)
product the oracle uses.

The character sum counts U through H instead.  With chi the canonical
additive character of GF(q), chi(x) = exp(2 pi i Tr(x) / p), the
indicator of H-perp is [v in H-perp] = q^-r sum_{h in H} chi(h . v), and
the sum of chi(h . v) over v in a coordinate subspace F^T is q^|T| when h
vanishes on T and 0 otherwise.  Summing over U by inclusion-exclusion,
with c_T the merged coefficients of ``simplicial.union_terms``
([v in U] = sum_T c_T [v in F^T]),

    |U meet H-perp| = q^-r sum_{h in H} U-hat(supp h),
    U-hat(S) = sum_T c_T q^|T| [T and S are disjoint].

Every U-hat value is an integer, so this is an identity of integers over
every GF(q).  ``_character_sums`` takes the q^r vectors of every H in one
``field.matmul`` of all coefficient vectors against the chunk, packs
their supports into bitmasks (column j weighs 2^j, as coordinate j + 1
does in the terms) and adds up their entries in a 2^k table of U-hat.

At q = 2 both methods run on words instead (``_words``): a vector of F^k
is packed into one int64 with column j weighing 2^j, the table's layout.
Its support is the word itself, so the character sum builds H's 2^r
words by doubling, the XORs of its rows' words, and looks each up with
no product and no packing.  The product of a row and v is the parity of
the popcount of their AND, so the member product ORs one parity per row
into a (chunk, |side|) array and counts the zeros.  A word holds k <= 63
bits.  The character sum runs only where its 2^k table fits
``_CHUNK_BYTES``, so k <= 21.  The member product packs words only for
k <= 63; past that, G(k, r) >= 2^k - 1 for every r < k, so the one rank
any cap lets through is r = k, a single basis, and it keeps the product.
The counts are those of the GF(2) product, so the pick and all that
follows from it are the same on both paths; over q > 2 the support of h
is not h, and only the product path serves.

Per basis the member product has min(e, 2) r |side| entries and the
character sum q^r k e, so the character sum wins at low ranks and
against large sides.  ``_uses_character_sum`` takes it when its product
is the smaller, the table's 2^k x 8 bytes fit ``linalg._CHUNK_BYTES``,
and q^r sum_T |c_T| q^|T|, which bounds every partial sum, is below
2^63, so int64 holds the sum exactly.  It reads only the field, k, r,
the side's size and the terms, so no option or run changes the pick.
The search context makes the pick once per rank and builds the table
once, so the ranks of a request share it and it goes with the context.
The counts being identical, the chunk step, the orbit representatives,
the cap checks and their order are untouched, and so are values,
``--verbose`` witnesses and the chunk where the early exit fires.

Each rank is scanned in canonical order along ``linalg.basis_chunks``,
the one walk over a rank, one chunk of candidate bases at a time, each
chunk built on demand.  The walk sizes chunks by scoring's bytes per row,
so the products of scoring stay within ``linalg._CHUNK_BYTES`` however
large the scanned side.  A chunk reduces
to its best value and a copy of its first optimal basis, so nothing of
the rank outlives the scan, and the scan stops at the first chunk that
reaches the bound.  ``hierarchy_prop1`` runs this scan for each rank in
turn, rank 1 first.

Every linear code has d_r >= sum_{i<r} ceil(d_1 / q^i), the generalized
Griesmer bound (Helleseth, Kloeve and Ytrehus, IEEE Trans. IT 38, 1992),
so the best count of rank r is at most n minus that sum.  Given d_1,
``_search`` stops at the first chunk reaching the smaller of the two
bounds; ``hierarchy_prop1`` passes rank 1's d_1 to ranks 2..k, and each
reads nothing else, so the ranks stay independent of one another.  One
rank searched alone (``ghw_prop1``, ``params``) keeps only q^(k-r).
Either stop is an upper bound on the best count, so a chunk reaching it
attains the optimum and every earlier chunk falls short of it: the first
optimal H in canonical order lies in that chunk, and values and
witnesses are those of the full scan.  A chunk scoring above the bound
is a fault, and the search raises ``RuntimeError`` rather than clamp it.

Over q > 2 only one basis per column orbit of each chunk is built and
scored.  D read at C is a union of coordinate subspaces of F^k or its
complement, so it is fixed by every coordinate scaling L in (F_q^*)^k;
since (HL)-perp = L^-1 H-perp, the map H -> HL leaves |D meet H-perp|
unchanged.  The
representative kept is the canonical RREF basis whose every column has
element code 1 as its first nonzero entry:

- Scaling each non-pivot column by the inverse of its first nonzero
  entry leaves the pivot columns alone, so the RREF form survives and
  every orbit has a representative.
- In row-major cell order the first cell that scaling changes is some
  column's first nonzero entry, and it drops from a code >= 2 to 1, so
  rep(H) <= H in canonical order.
- Hence the first optimal H in canonical order is a representative:
  values, witnesses and the chunk where the early exit fires are those
  of the full scan.

A chunk still spans the walk's range of canonical candidates, and the
cap checks count every canonical candidate, G(k, r); only the
representatives among them are built (``basis_chunks`` with
``orbits``), up to (q-1)^(k-r) fewer rows, and the walk skips a range
that holds none.  At q = 2 every basis is its own representative, so the
search asks for plain ranges there, which the oracle's walks
(``orbits=False``) share in ``linalg.subspace_bases_array``'s cache.

A request builds one search context (``_search_context``) for the ranks
it searches: all of 1..k for ``hierarchy_prop1``, r alone for
``ghw_prop1``.  It decides everything the searches read, once and in
this order, and is frozen once built:

1. it resolves the cap, refuses an empty D by ``ComplexSpec.empty``
   before any sizing, reads D at C and walks the generators'
   ``union_terms`` of that spec: |U|, n and the scanned side's spec and
   size are read off those terms;
2. it validates each rank and checks its G(k, r) against the cap;
3. it picks each rank's scoring method (``_uses_character_sum``);
4. if some rank takes the member product, the only method that reads
   the side, it checks the side's F_p entries against the cap;
5. only then it lists the side once (``member_codes``) if some rank takes
   the member product, and builds the U-hat table if some rank takes the
   character sum.

``_search`` then only scans.  A request whose ranks all take the
character sum lists nothing, and an oversized request is refused before
anything of the side's size is allocated.  No vector of K is ever
enumerated.
"""

from __future__ import annotations

from dataclasses import dataclass
from dataclasses import field as dataclass_field

import numpy as np

from .config import check_cap, resolve_max_enum
from .field import Field, matmul
from .linalg import (
    _CHUNK_BYTES,
    Subspace,
    basis_chunks,
    codes_to_matrix,
    rref,
    subspace_count,
    subspace_from_rref,
)
from .simplicial import ComplexSpec, k_space, member_codes, restrict, union_size, union_terms

@dataclass(eq=False)
class LinearCode:
    """A concrete generator matrix together with its defining data."""

    field: Field
    spec: ComplexSpec
    generator: np.ndarray  # m rows, one column per defining vector
    n: int
    k: int
    kernel: Subspace  # orthogonal complement of the span of the columns


def build_code(field: Field, spec: ComplexSpec, max_enum=None) -> LinearCode:
    if spec.empty:
        raise ValueError(f"defining set {spec.describe()} is empty")
    codes = member_codes(spec, field.q, max_enum)
    defining = codes_to_matrix(codes, field.q, spec.m)
    kernel = k_space(spec, field)
    k = spec.m - kernel.dim
    return LinearCode(
        field=field,
        spec=spec,
        generator=defining.T.copy(),
        n=len(codes),
        k=k,
        kernel=kernel,
    )


@dataclass(frozen=True)
class WeightHierarchy:
    """d_1 < d_2 < ... < d_k with a provenance tag per entry."""

    spec: ComplexSpec
    n: int
    k: int
    values: tuple
    provenance: tuple
    method: str
    # the search's optimal subspace per rank, in canonical order; empty
    # for the other methods and never part of equality
    witnesses: tuple = dataclass_field(default=(), compare=False, repr=False)

    def __post_init__(self):
        if len(self.values) != self.k:
            raise ValueError(
                f"expected {self.k} weights, got {len(self.values)}"
            )
        if len(self.provenance) != len(self.values):
            raise ValueError("one provenance tag per weight is required")
        for a, b in zip(self.values, self.values[1:]):
            if not a < b:
                raise ValueError(f"weights must strictly increase, got {self.values}")
        if self.values and not 1 <= self.values[0]:
            raise ValueError("weights must be positive")
        if self.values and self.values[-1] > self.n:
            raise ValueError(
                f"top weight {self.values[-1]} exceeds length {self.n}"
            )


class BoundViolation(ValueError):
    """A method's weights break a theorem every weight hierarchy obeys;
    ``values`` holds them, so a cross-check can still report them."""

    def __init__(self, message: str, values: tuple):
        super().__init__(message)
        self.values = values


def check_hierarchy_bounds(q: int, n: int, k: int, values: tuple) -> tuple:
    """``values`` as d_1, ..., d_k of an [n, k] code over GF(q), once they
    pass two theorems every weight hierarchy obeys, in O(k): the
    generalized Singleton bound d_r <= n - k + r (Wei, 1991) and, for
    r >= 2, (q^r - 1) d_{r-1} <= (q^r - q) d_r (Helleseth, Kloeve and
    Ytrehus, 1992).  Every method runs it on the values it returns, so a
    faulty method fails at sizes no oracle reaches; a violation raises a
    ``BoundViolation`` naming the rank and the inequality."""
    for r, d in enumerate(values, start=1):
        if d > n - k + r:
            raise BoundViolation(
                f"d_{r} = {d} breaks the Singleton bound d_r <= n - k + r = {n - k + r}", values
            )
        if r >= 2 and (q**r - 1) * values[r - 2] > (q**r - q) * d:
            raise BoundViolation(
                f"d_{r - 1} = {values[r - 2]} and d_{r} = {d} break the bound "
                f"(q^r - 1) d_(r-1) <= (q^r - q) d_r at r = {r}, q = {q}",
                values,
            )
    return values


# ----------------------------------------------------------------------
# subspace search


@dataclass(frozen=True, eq=False)
class _SearchContext:
    field: Field
    spec: ComplexSpec  # the request's spec, on F^m
    n: int
    k: int
    columns: tuple  # C, the k coordinates of F^m the search spans
    side: ComplexSpec  # the smaller of U and its complement in F^k
    side_size: int  # its number of vectors
    kernel: Subspace  # K, which every witness must meet only in zero
    terms: dict  # union_terms of U, the union of D read at C
    picks: dict  # {r: does rank r take the character sum}, per planned rank
    small: np.ndarray | None  # (side_size, k) side, if a planned rank takes the member product
    table: np.ndarray | None  # _support_table, if a planned rank takes the character sum


def _words(vectors: np.ndarray) -> np.ndarray:
    """GF(2) vectors of F^k (last axis) packed into int64 words, column j
    weighing 2^j as in the support table's keys; k <= 63 (see the module
    docstring)."""
    k = vectors.shape[-1]
    assert k <= 63, k
    return vectors @ (1 << np.arange(k, dtype=np.int64))


def _orthogonal_counts(field: Field, bases: np.ndarray, vectors: np.ndarray, table=None):
    """For each candidate basis B in the stack, count the rows v of
    ``vectors`` with Bv = 0 by the member product; or, given the
    ``_support_table`` of a union U of coordinate subspaces of F^k, count
    |U meet H-perp| by the character sum, ``vectors`` unread.  At q = 2
    row i of B and v are words, and their product is the parity of the
    popcount of their AND."""
    if table is not None:
        return _character_sums(field, bases, table)
    if field.q == 2 and bases.shape[2] <= 63:
        rows, side = _words(bases), _words(vectors)
        odd = np.zeros((len(bases), len(side)), dtype=np.uint8)
        for i in range(rows.shape[1]):
            odd |= np.bitwise_count(rows[:, i, None] & side) & 1
        return len(side) - odd.sum(axis=1, dtype=np.int64)
    return len(vectors) - np.any(matmul(field, bases, vectors.T), axis=1).sum(axis=1)


def _uses_character_sum(field: Field, k: int, r: int, side: int, terms) -> bool:
    """Does scoring rank r of F^k against a side of ``side`` vectors take
    the character sum over H?  Only when its product, q^r k e entries per
    basis, is smaller than the member product's min(e, 2) r |side|, its
    2^k table fits ``_CHUNK_BYTES``, and q^r sum |c_S| q^|S| over the
    ``terms`` bounds every partial sum below 2^63, so int64 holds it."""
    q, e = field.q, field.e
    if q**r * k * e >= min(e, 2) * r * side or 8 * 2**k > _CHUNK_BYTES:
        return False
    return q**r * sum(abs(c) * q ** key.bit_count() for key, c in terms.items()) < 2**63


def _support_table(q: int, m: int, terms) -> np.ndarray:
    """U-hat as a read-only int64 table of 2^m entries, indexed by support
    bitmask as ``terms`` are: the weights c_T q^|T| summed over every
    subset T of the complement of S, one subset-sum pass per coordinate,
    then read at the complement."""
    table = np.zeros(2**m, dtype=np.int64)
    for key, c in terms.items():
        table[key] = c * q ** key.bit_count()
    for j in range(m):
        halves = table.reshape(-1, 2, 2**j)
        halves[:, 1] += halves[:, 0]
    table = table[::-1].copy()  # entry S is the sum over T inside [m] - S
    table.setflags(write=False)
    return table


def _character_sums(field: Field, bases: np.ndarray, table: np.ndarray):
    """|U meet H-perp| for each H spanned by a basis of the stack, as
    q^-r sum over h in H of U-hat(supp h): every coefficient vector times
    every basis in one product, the supports of the q^r results per basis
    packed into bitmasks of the narrowest unsigned type (column j weighs
    2^j), each looked up in the table; at q = 2 the words of H, XORs of
    its rows' words, are their own supports.  A stack of tables
    (..., 2^k) gives a stack of counts."""
    c, r, k = bases.shape
    q = field.q
    if q == 2:
        span = np.zeros((1, c), dtype=np.int64)
        for word in _words(bases).T:
            span = np.concatenate((span, span ^ word))
        return table[..., span].sum(axis=-2) // 2**r
    rows = bases.transpose(1, 2, 0).reshape(r, k * c)  # coordinate major
    span = matmul(field, codes_to_matrix(range(q**r), q, r), rows)
    word = np.min_scalar_type(table.shape[-1] - 1)
    supports = np.einsum(
        "hjc,j->hc",
        (span.reshape(q**r, k, c) != 0).view(np.uint8),
        2 ** np.arange(k, dtype=word),
        dtype=word,
    )
    return table[..., supports].sum(axis=-2) // q**r


def _valid_mask(field: Field, bases: np.ndarray, kernel: Subspace) -> np.ndarray:
    """True where the candidate meets the kernel only in zero: where its
    r rows stacked on K's basis have rank r + dim K.  Each row is first
    cleared at K's pivots by K's RREF rows, which are zero at each other's
    pivots; a nonzero vector of K is nonzero at some pivot, so the stack
    has that rank exactly when the r cleared rows have rank r, and only
    they are reduced.  The search never builds a candidate that meets K,
    so it runs this once per rank, on the witness, as a check of that.  A
    zero K is met by nothing, so it is settled without a reduction."""
    if not kernel.dim:
        return np.ones(len(bases), dtype=bool)

    def cleared(row):
        for pivot, k_row in zip(kernel.pivots, kernel.basis):
            c = row[pivot]
            if c:
                row = [field.sub(x, field.mul(c, y)) for x, y in zip(row, k_row)]
        return row

    r = bases.shape[1]
    return np.array(
        [rref(field, map(cleared, basis))[1] == r for basis in bases.tolist()], dtype=bool
    )


def _search_context(field: Field, spec: ComplexSpec, max_enum=None, ranks=None) -> _SearchContext:
    """Everything the ``ranks`` of one request read (all of 1..k by
    default), decided once in the order the module docstring lists: no
    cap is checked and nothing is built after it returns.  The member
    product expands the side to |side| k e^2 F_p entries per chunk."""
    max_enum = resolve_max_enum(max_enum)
    if spec.empty:
        raise ValueError(f"defining set {spec.describe()} is empty")
    q = field.q
    kernel = k_space(spec, field)
    columns, local = restrict(spec, kernel)
    k = len(columns)
    terms = union_terms(local.sets, max_enum)
    union = union_size(terms, q)
    # scan the smaller of U and its complement in F^k
    side = ComplexSpec(m=k, sets=local.sets, complement=2 * union > q**k)
    side_size = min(union, q**k - union)
    ranks = range(1, k + 1) if ranks is None else ranks
    for r in ranks:
        if not 1 <= r <= k:
            raise ValueError(f"r must lie in 1..{k}, got {r}")
        subspace_count(q, k, r, max_enum)
    picks = {r: _uses_character_sum(field, k, r, side_size, terms) for r in ranks}
    member_product = not all(picks.values())
    if member_product:
        check_cap(side_size * k * field.e**2, max_enum, what="F_p entries of the scanned side")
    return _SearchContext(
        field=field,
        spec=spec,
        n=q**k - union if spec.complement else union,
        k=k,
        columns=columns,
        side=side,
        side_size=side_size,
        kernel=kernel,
        terms=terms,
        picks=picks,
        small=codes_to_matrix(member_codes(side, q, max_enum), q, k) if member_product else None,
        table=_support_table(q, k, terms) if any(picks.values()) else None,
    )


def _search(ctx: _SearchContext, r: int, *, d1=None):
    """d_r and its witness: (n - max |D meet H-perp| over the r-dim H inside
    F^C, the first such H in canonical order attaining the max).  Given
    the code's d_1, the scan also stops at the generalized Griesmer bound
    n - sum_{i<r} ceil(d_1 / q^i), and a chunk above it raises.  The
    context checked every cap and built every input of the rank, so this
    only scans; a rank the context did not plan raises ``ValueError``."""
    if r not in ctx.picks:
        raise ValueError(f"rank {r} was not planned in the search context of {ctx.spec.describe()}")
    field, spec = ctx.field, ctx.spec
    q, k = field.q, ctx.k
    character_sum = ctx.picks[r]
    table = ctx.table if character_sum else None
    per_h = q ** (k - r)
    # the zero vector lies in every H-perp and never in a complement
    bound = per_h - spec.complement
    if d1 is not None:
        bound = min(bound, ctx.n - sum(-(-d1 // q**i) for i in range(r)))
    # the member product counts the side and the character sum counts U;
    # what is counted lies outside D when its complement flag is not D's
    outside = spec.complement != (ctx.side.complement and not character_sum)
    best = witness = None
    # per row: scoring's product and digit; one basis per column orbit,
    # see the module docstring
    for _, chunk in basis_chunks(q, k, r, 8 * min(field.e, 2) * r * ctx.side_size, orbits=q > 2):
        counts = _orthogonal_counts(field, chunk, ctx.small, table)
        inside = per_h - counts if outside else counts
        pos = int(np.argmax(inside))
        if best is None or inside[pos] > best:
            best, witness = int(inside[pos]), chunk[pos].copy()
            if best > bound:
                raise RuntimeError(
                    f"rank {r} of {spec.describe()} scored {best}, above the bound {bound}"
                )
            if best == bound:
                break
    embedded = np.zeros((r, spec.m), dtype=np.int64)
    embedded[:, ctx.columns] = witness
    if not _valid_mask(field, embedded[None], ctx.kernel).all():
        raise RuntimeError(f"the rank-{r} witness meets the kernel of {spec.describe()}")
    return ctx.n - best, subspace_from_rref(embedded)


def ghw_prop1(field: Field, spec: ComplexSpec, r: int, *, max_enum=None):
    """r-th generalized Hamming weight by exhaustive subspace search.

    Returns (value, witness) where the witness is the first subspace in
    canonical order attaining the optimum among the r-dim subspaces of
    F^C, C the coordinates off the pivots of the kernel's RREF basis (all
    of F^m when the kernel is zero): the search runs on D read at C, in
    F^k with k = |C|, and embeds its optimum at C's columns.
    """
    return _search(_search_context(field, spec, max_enum, (r,)), r)


def hierarchy_prop1(field: Field, spec: ComplexSpec, *, max_enum=None) -> WeightHierarchy:
    """Full weight hierarchy by subspace search, one search per rank in
    turn, keeping each rank's witness: rank 1 first, then each higher rank
    stopped also at the Griesmer bound from d_1.  Its search context
    checks every cap of every rank, and builds the U-hat table and the
    side, before the first search starts."""
    ctx = _search_context(field, spec, max_enum)
    found = [_search(ctx, 1)]
    found += [_search(ctx, r, d1=found[0][0]) for r in range(2, ctx.k + 1)]
    values = check_hierarchy_bounds(ctx.field.q, ctx.n, ctx.k, tuple(value for value, _ in found))
    return WeightHierarchy(
        spec=spec,
        n=ctx.n,
        k=ctx.k,
        values=values,
        provenance=tuple("prop1-search" for _ in values),
        method="prop1-search",
        witnesses=tuple(witness for _, witness in found),
    )
