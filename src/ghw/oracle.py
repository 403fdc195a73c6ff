"""Brute-force baselines that trust nothing but definitions.

The weight oracle walks every r-dimensional subcode: message subspaces
are enumerated through canonical bases of F_q^k, each is pushed through
a full-rank generator, and the support is counted column by column.  No
duality, no counting identities, no shortcuts besides batching the
matrix products.  Deliberately boring, so it can sit on the other side
of an equality check from the closed forms and the subspace search.
Products run on F_p digits (see field.py), and an entry is nonzero when
any of its digits is, so supports are read off the digits directly.
Subcodes are taken in chunks sized by bytes, so the memory of a chunk
does not grow with the code length.

The avoidance oracle answers the same question as the paired-extension
construction: the largest dimension of a subspace meeting each of the
given subspaces only in zero.  It enumerates every subspace of the
ambient sum and tests disjointness on raw vector sets, spelling each
subspace out with ``linalg.span_vectors``, so it runs over every GF(q).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .code import LinearCode, WeightHierarchy
from .config import check_cap
from .field import Field, fp_matrix, to_digits
from .linalg import (
    _CHUNK,
    Subspace,
    gaussian_binomial,
    rref,
    span_vectors,
    subspace_bases_array,
    subspace_from_vectors,
)

# bytes of one chunk of codeword digits in the weight oracle, which sizes
# its rows by the code length instead of holding _CHUNK rows of any width
_CHUNK_BYTES = 16 * 2**20


def _subcode_count(code: LinearCode, r: int, max_enum=None) -> int:
    """Number of r-dimensional subcodes, refused when it exceeds the cap."""
    total = gaussian_binomial(code.k, r, code.field.q)
    check_cap(total, max_enum, what=f"{r}-dim subcodes")
    return total


def ghw_definitional(code: LinearCode, r: int, max_enum=None) -> int:
    """Smallest support size over all r-dimensional subcodes."""
    if not 1 <= r <= code.k:
        raise ValueError(f"r must lie in 1..{code.k}, got {r}")
    field = code.field
    rows = [tuple(int(x) for x in row) for row in code.generator]
    reduced, rank, _ = rref(field, rows)
    if rank != code.k:
        raise ValueError(
            f"generator has rank {rank}, but the code records k = {code.k}"
        )
    gen = fp_matrix(field, np.asarray(reduced, dtype=np.int64))  # (k e, e n)
    total = _subcode_count(code, r, max_enum)
    step = max(1, min(_CHUNK, _CHUNK_BYTES // (r * field.e * code.n * 8)))
    best = None
    for s in range(0, total, step):
        chunk = subspace_bases_array(field.q, code.k, r, s, min(s + step, total))
        words = to_digits(field, chunk) @ gen  # (c, r, e n) codeword digits
        words %= field.p
        # digit major: a column is in the support when any row has any
        # nonzero digit there
        supports = np.any(words.reshape(len(chunk), -1, code.n), axis=1).sum(axis=1)
        low = int(supports.min())
        if best is None or low < best:
            best = low
    return best


def hierarchy_definitional(code: LinearCode, max_enum=None) -> WeightHierarchy:
    """Every weight by subcode enumeration, all ranks capped up front."""
    for r in range(1, code.k + 1):
        _subcode_count(code, r, max_enum)
    values = tuple(ghw_definitional(code, r, max_enum) for r in range(1, code.k + 1))
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
        total = gaussian_binomial(s, r, q)
        for start in range(0, total, _CHUNK):
            for block in subspace_bases_array(q, s, r, start, min(start + _CHUNK, total)):
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
