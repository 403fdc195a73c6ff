"""Brute-force baselines that trust nothing but definitions.

The weight oracle walks every r-dimensional subcode: message subspaces
are enumerated through canonical bases of F_q^k, and the support of a
subcode, the union of the supports of its basis rows, is counted.  No
duality, no counting identities, no shortcuts besides batching.
Deliberately boring, so it can sit on the other side of an equality
check from the closed forms and the subspace search.

Every row of a canonical RREF basis is monic (its first nonzero entry is
1), so each code first pushes its G(k, 1) monic messages through a
full-rank generator, once, and keeps the supports of those codewords in
a table packed into 64-bit words; the codewords come from
``field.matmul``.  A subcode then costs a lookup of its r rows
(``linalg.line_numbers`` turns each row into its line's number), an OR
over them and a popcount.  The table is built, and subcodes are taken,
along ``linalg.basis_chunks``, the one walk over a rank, sized by each
row's bytes, so the memory of a block stays within
``linalg._CHUNK_BYTES`` whatever the code length.  The walk asks for
ranges with ``orbits=False``, the key the search uses at q = 2, so a
range both build is built once.

The avoidance oracle answers the same question as the paired-extension
construction: the largest dimension of a subspace meeting each of the
given subspaces only in zero.  It enumerates every subspace of the
ambient sum along the same walk and tests disjointness on raw vector
sets, spelling each subspace out with ``linalg.span_vectors``, so it runs
over every GF(q).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .code import LinearCode, WeightHierarchy, check_hierarchy_bounds
from .config import check_cap
from .field import Field, matmul
from .linalg import (
    Subspace,
    basis_chunks,
    gaussian_binomial,
    line_numbers,
    rref,
    span_vectors,
    subspace_count,
    subspace_from_vectors,
)


@lru_cache(maxsize=1)
def _row_supports(code: LinearCode) -> np.ndarray:
    """Supports of x G for every monic message x, in the canonical order
    of the 1-dim subspaces of F_q^k, packed little-endian: column j is bit
    j % 64 of word j // 64.  Shape (G(k, 1), ceil(n / 64)), uint64.

    ``LinearCode`` hashes by identity, so the cache holds the table of the
    most recent code only.
    """
    field = code.field
    rows = [tuple(int(x) for x in row) for row in code.generator]
    reduced, rank, _ = rref(field, rows)
    if rank != code.k:
        raise ValueError(
            f"generator has rank {rank}, but the code records k = {code.k}"
        )
    gen = np.asarray(reduced, dtype=np.int64)
    total = gaussian_binomial(code.k, 1, field.q)
    nbytes = -(-code.n // 64) * 8
    table = np.zeros((total, nbytes), dtype=np.uint8)
    # matmul holds two (c, n) int64 arrays: the product and one digit
    for start, messages in basis_chunks(field.q, code.k, 1, 16 * code.n):
        words = matmul(field, messages[:, 0], gen)  # (c, n) codewords
        packed = np.packbits(words != 0, axis=1, bitorder="little")
        table[start : start + len(packed), : packed.shape[1]] = packed
    return table.view("<u8")


def ghw_definitional(code: LinearCode, r: int, max_enum=None) -> int:
    """Smallest support size over all r-dimensional subcodes."""
    if not 1 <= r <= code.k:
        raise ValueError(f"r must lie in 1..{code.k}, got {r}")
    q, k = code.field.q, code.k
    subspace_count(q, k, r, max_enum, what=f"{r}-dim subcodes")
    subspace_count(q, k, 1, max_enum, what="1-dim subcodes")  # table rows
    table = _row_supports(code)
    best = code.n  # no support is larger
    for _, chunk in basis_chunks(q, k, r, 8 * r * table.shape[1]):  # gathers (c, r, words)
        support = np.bitwise_or.reduce(table[line_numbers(chunk, q)], axis=1)  # (c, words)
        best = min(best, int(np.bitwise_count(support).sum(axis=1, dtype=np.int64).min()))
    return best


def hierarchy_definitional(code: LinearCode, max_enum=None) -> WeightHierarchy:
    """Every weight by subcode enumeration, all ranks capped up front."""
    q, k = code.field.q, code.k
    for r in range(1, k + 1):
        subspace_count(q, k, r, max_enum, what=f"{r}-dim subcodes")
    values = check_hierarchy_bounds(
        q, code.n, k, tuple(ghw_definitional(code, r, max_enum) for r in range(1, k + 1))
    )
    return WeightHierarchy(
        spec=code.spec,
        n=code.n,
        k=code.k,
        values=values,
        provenance=tuple("definitional" for _ in values),
        method="definitional",
    )


# ----------------------------------------------------------------------
# exhaustive subspace avoidance


@lru_cache(maxsize=8)
def _subspaces_by_dim(field: Field, s: int):
    """All subspaces of F_q^s as (dim, frozenset of nonzero vector codes),
    dimension ascending, canonical order within a dimension."""
    q = field.q
    out = [(0, frozenset())]
    weights = q ** np.arange(s - 1, -1, -1, dtype=np.int64)
    for r in range(1, s + 1):
        for _, bases in basis_chunks(q, s, r):
            for block in bases:
                vecs = span_vectors(field, block)
                out.append((r, frozenset(int(c) for c in vecs @ weights)))
    return tuple(out)


def _span_codes(field: Field, sub: Subspace, pivots, s: int):
    """Nonzero vectors of a subspace, written in coordinates of the ambient
    sum space and packed into integer codes."""
    basis = np.asarray(sub.basis, dtype=np.int64).reshape(sub.dim, sub.ambient)
    coords = span_vectors(field, basis)[:, list(pivots)]  # against the sum's basis
    weights = field.q ** np.arange(s - 1, -1, -1, dtype=np.int64)
    return frozenset(int(c) for c in coords @ weights)


def lemma1_brute_multi(field: Field, spaces, max_enum=None) -> int:
    """Largest dimension of a subspace of the sum meeting every given
    subspace only in zero, by exhaustive search."""
    if not spaces:
        raise ValueError("at least one subspace is required")
    m = spaces[0].ambient
    if any(sp.ambient != m for sp in spaces):
        raise ValueError("subspaces live in different ambient spaces")
    total = subspace_from_vectors(
        field, [row for sp in spaces for row in sp.basis], m
    )
    s = total.dim
    q = field.q
    count = sum(gaussian_binomial(s, r, q) for r in range(s + 1))
    check_cap(count, max_enum, what="candidate subspaces")
    forbidden = [_span_codes(field, sp, total.pivots, s) for sp in spaces]
    best = 0
    for dim, codes in _subspaces_by_dim(field, s):
        if dim <= best:
            continue
        if all(codes.isdisjoint(f) for f in forbidden):
            best = dim
    return best


def lemma1_brute(field: Field, u_space: Subspace, v_space: Subspace, max_enum=None) -> int:
    """Two-subspace case of the exhaustive avoidance search."""
    return lemma1_brute_multi(field, [u_space, v_space], max_enum)
