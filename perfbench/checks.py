"""Output checks that trust nothing from ghw.

Everything here is recomputed from definitions with the benchmark's own
field arithmetic: the defining set D from supports, the code length n,
its dimension k and its minimum distance d_1, and the support of a
subcode spanned by a witness.  A hierarchy is then held to properties
every weight hierarchy has.  No check compares against a stored copy of
ghw's output, so a check keeps its meaning when ghw changes.

Element codes follow the usual base-p digit convention (constant term
least significant).  Counts of points and of nonzero coordinates do not
depend on which irreducible polynomial builds GF(p^e), so the modulus
chosen here need not match ghw's.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product

import numpy as np

from workloads import gaussian_binomial, prime_power

_CHUNK_ENTRIES = 1 << 21  # functionals x points per block, bounds check memory


def _poly_mod(a, mod, p):
    """Remainder of a modulo the monic polynomial mod, coefficients mod p."""
    a = list(a)
    e = len(mod) - 1
    for i in range(len(a) - 1, e - 1, -1):
        c = a[i]
        if c:
            for j in range(e + 1):
                a[i - e + j] = (a[i - e + j] - c * mod[j]) % p
    return a[:e]


def _poly_mulmod(a, b, mod, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return _poly_mod(out, mod, p)


def _irreducible(p: int, e: int):
    """Some monic irreducible of degree e over F_p, by trial division."""
    for tail in product(range(p), repeat=e):
        mod = list(tail) + [1]
        if all(
            any(_poly_mod(mod, list(low) + [1], p))
            for d in range(1, e // 2 + 1)
            for low in product(range(p), repeat=d)
        ):
            return mod
    raise ValueError(f"no irreducible of degree {e} over F_{p}")


@lru_cache(maxsize=None)
def field_tables(q: int):
    """(add, mul) tables of GF(q) as q-by-q int64 arrays."""
    pe = prime_power(q)
    if pe is None:
        raise ValueError(f"{q} is not a prime power")
    p, e = pe
    elems = np.arange(q)
    if e == 1:
        add = (elems[:, None] + elems[None, :]) % p
        mul = (elems[:, None] * elems[None, :]) % p
        return add, mul
    mod = _irreducible(p, e)
    digits = [[(a // p**i) % p for i in range(e)] for a in range(q)]
    weights = [p**i for i in range(e)]
    add = np.empty((q, q), dtype=np.int64)
    mul = np.empty((q, q), dtype=np.int64)
    for a in range(q):
        for b in range(q):
            add[a, b] = sum(((x + y) % p) * w for x, y, w in zip(digits[a], digits[b], weights))
            prod = _poly_mulmod(digits[a], digits[b], mod, p)
            mul[a, b] = sum(x * w for x, w in zip(prod, weights))
    return add, mul


def all_vectors(q: int, m: int) -> np.ndarray:
    """Every vector of F_q^m as a (q^m, m) array, coordinate 1 leftmost."""
    return np.array(list(product(range(q), repeat=m)), dtype=np.int64).reshape(-1, m)


def defining_set(q: int, m: int, sets, complement: bool) -> np.ndarray:
    """D = {v : supp(v) lies in some generator}, or its complement."""
    vecs = all_vectors(q, m)
    inside = np.zeros(len(vecs), dtype=bool)
    for s in sets:
        outside = [j for j in range(m) if j + 1 not in set(s)]
        inside |= ~np.any(vecs[:, outside] != 0, axis=1)
    return vecs[~inside] if complement else vecs[inside]


def _matmul(q: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b over GF(q); a is (..., s), b is (s, t)."""
    if prime_power(q)[1] == 1:
        return (a @ b) % q
    add, mul = field_tables(q)
    acc = np.zeros(a.shape[:-1] + b.shape[1:], dtype=np.int64)
    for j in range(a.shape[-1]):
        acc = add[acc, mul[a[..., j, None], b[j]]]
    return acc


def dot_nonzero_counts(q: int, xs: np.ndarray, points: np.ndarray) -> np.ndarray:
    """For each functional x, the number of points d with x . d != 0."""
    out = np.empty(len(xs), dtype=np.int64)
    step = max(1, _CHUNK_ENTRIES // max(len(points), 1))
    for s in range(0, len(xs), step):
        out[s : s + step] = np.count_nonzero(_matmul(q, xs[s : s + step], points.T), axis=1)
    return out


def code_parameters(q: int, m: int, sets, complement: bool):
    """(n, k, d_1, nonzero) of the code evaluating F_q^m on D.

    n counts D, the zero vector included when it belongs to D.  k is m
    minus the dimension of the functionals vanishing on all of D, read
    off as log_q of their number.  d_1 is the least nonzero weight, and
    `nonzero` the number of nonzero points of D, which is the support of
    the whole code.
    """
    points = defining_set(q, m, sets, complement)
    weights = dot_nonzero_counts(q, all_vectors(q, m), points)
    zeros = int(np.count_nonzero(weights == 0))
    dim_kernel = 0
    while q**dim_kernel < zeros:
        dim_kernel += 1
    if q**dim_kernel != zeros:
        raise AssertionError(f"{zeros} vanishing functionals is not a power of {q}")
    k = m - dim_kernel
    nonzero_weights = weights[weights != 0]
    d1 = int(nonzero_weights.min()) if len(nonzero_weights) else 0
    n_nonzero = int(np.count_nonzero(np.any(points != 0, axis=1)))
    return len(points), k, d1, n_nonzero


def row_reduce(q: int, rows: np.ndarray) -> np.ndarray:
    """The nonzero rows of the reduced row echelon form over GF(q)."""
    add, mul = field_tables(q)
    inv = {a: int(np.flatnonzero(mul[a] == 1)[0]) for a in range(1, q)}
    neg = [int(np.flatnonzero(add[a] == 0)[0]) for a in range(q)]
    mat = [list(map(int, row)) for row in rows]
    rank = 0
    for col in range(len(mat[0])):
        pick = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if pick is None:
            continue
        mat[rank], mat[pick] = mat[pick], mat[rank]
        lead = inv[mat[rank][col]]
        mat[rank] = [int(mul[lead, x]) for x in mat[rank]]
        for i in range(len(mat)):
            c = mat[i][col]
            if i != rank and c:
                mat[i] = [int(add[x, mul[neg[c], y]]) for x, y in zip(mat[i], mat[rank])]
        rank += 1
    return np.array(mat[:rank], dtype=np.int64).reshape(rank, -1)


def subspace_bases(q: int, k: int, r: int):
    """Every r-dimensional subspace of F_q^k as an RREF basis, in blocks
    of shape (count, r, k), one block per pivot set."""
    for pivots in combinations(range(k), r):
        free = [(i, j) for i in range(r) for j in range(pivots[i] + 1, k) if j not in pivots]
        block = np.zeros((q ** len(free), r, k), dtype=np.int64)
        block[:, range(r), pivots] = 1
        codes = np.arange(len(block))
        for idx, (i, j) in enumerate(reversed(free)):
            block[:, i, j] = (codes // q**idx) % q
        yield block


def subspace_count(q: int, k: int) -> int:
    """Number of subspaces of F_q^k of every dimension from 1 to k."""
    return sum(gaussian_binomial(k, r, q) for r in range(1, k + 1))


def exact_hierarchy(q: int, m: int, sets, complement: bool):
    """d_1..d_k by definition: the least support over every r-dimensional
    subcode, each subcode met once as the row space of A G for an RREF
    basis A of F_q^k and a full-rank generator G."""
    points = defining_set(q, m, sets, complement)
    gen = row_reduce(q, points.T)
    k = gen.shape[0]
    values = []
    for r in range(1, k + 1):
        best = None
        for block in subspace_bases(q, k, r):
            for s in range(0, len(block), 4096):
                words = _matmul(q, block[s : s + 4096], gen)
                low = int(np.any(words != 0, axis=1).sum(axis=1).min())
                best = low if best is None else min(best, low)
        values.append(best)
    return values


def witness_problems(q: int, m: int, sets, complement: bool, r: int, rows, d_r: int):
    """Problems with a witness H for d_r: its rows must span an
    r-dimensional subcode whose support is d_r."""
    h = np.asarray(rows, dtype=np.int64).reshape(-1, m)
    if h.shape[0] != r:
        return [f"witness r={r} has {h.shape[0]} rows"]
    points = defining_set(q, m, sets, complement)
    span = _matmul(q, all_vectors(q, r), h)  # every combination of H's rows
    problems = []
    if np.count_nonzero(dot_nonzero_counts(q, span, points) == 0) != 1:
        problems.append(f"witness r={r} does not span an {r}-dimensional subcode")
    support = int(np.any(_matmul(q, h, points.T) != 0, axis=0).sum())
    if support != d_r:
        problems.append(f"witness r={r} spans a subcode of support {support}, not {d_r}")
    return problems


def hierarchy_problems(values, q: int, n: int, k: int, d1: int, n_nonzero: int):
    """Properties every weight hierarchy has, against independent n, k, d_1.

    Strictly increasing, k entries, d_1 equal to the recomputed minimum
    distance, d_k equal to the support of the whole code, the generalized
    Singleton bound d_r <= n - k + r and the generalized Griesmer bound
    d_r >= sum_{i<r} ceil(d_1 / q^i).
    """
    values = list(values)
    problems = []
    if len(values) != k:
        return [f"{len(values)} weights for a dimension-{k} code"]
    if any(a >= b for a, b in zip(values, values[1:])):
        problems.append(f"hierarchy {values} is not strictly increasing")
    if values and values[0] != d1:
        problems.append(f"d_1 = {values[0]}, recomputed {d1}")
    if values and values[-1] != n_nonzero:
        problems.append(f"d_k = {values[-1]}, but D has {n_nonzero} nonzero vectors")
    for r, d in enumerate(values, start=1):
        if d > n - k + r:
            problems.append(f"d_{r} = {d} exceeds n - k + r = {n - k + r}")
        griesmer = sum(-(-d1 // q**i) for i in range(r))
        if d < griesmer:
            problems.append(f"d_{r} = {d} is below the Griesmer sum {griesmer}")
    return problems
