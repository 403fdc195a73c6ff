"""Defining sets built from unions of coordinate subspaces of F_q^m.

A specification lists generating supports S_1, ..., S_l inside {1, ..., m}.
The set it denotes is {v : supp(v) is contained in some S_i}, or the
complement of that set inside F_q^m when the complement flag is on.
Membership never needs the field structure, only supports.

Normalization dedupes the generators, drops any generator contained in
another, and orders the survivors by (size, lexicographic).  Everything
downstream (formula dispatch, provenance strings, column order) assumes
a normalized specification.

Vectors map to integer codes with coordinate 1 as the most significant
base-q digit, so ascending code order is lexicographic order on tuples,
and the column order of every generator matrix is reproducible.

Sizes come from inclusion-exclusion over the generators' common supports,
merged (``union_terms``).  The generators are added one at a time: since
[A u F^g] = [A] + [F^g] - [A meet F^g] and F^S meet F^g = F^(S meet g),
g adds {g: +1} and {S meet g: -c_S} for every term so far, equal supports
merge and zero coefficients drop (the Moebius function of the intersection
lattice; Rota, 1964).  Every support kept is the intersection of some of
the generators, so there are at most as many terms as distinct
intersections, never more than the 2^l - 1 generator subsets (20
singletons give 21 terms).  Each c_S sums the signs (-1)^(|J|+1) of the
subsets J meeting in S, so sum |c_S| q^|S|, which bounds every partial sum
of the terms, is at most the subsets' sum_J q^|S_J|.

A caller that needs sizes walks the terms once and reads them all off
with ``union_size``: |U| itself, and q^m - |U| for the complement.
Whether D is empty needs no size at all (``ComplexSpec.empty``), so it is
decided before any walk, and no cap can refuse it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import check_cap
from .field import Field
from .linalg import Subspace, codes_to_matrix, subspace_from_vectors


@dataclass(frozen=True)
class ComplexSpec:
    """Normalized defining-set description: generators plus complement flag."""

    m: int
    sets: tuple
    complement: bool

    @property
    def empty(self) -> bool:
        """Is D empty?  Exactly when the complement flag is on and [m] is a
        generator: the union holds 0, so it is never empty, and it is all
        of F^m exactly when it holds the all-ones vector, which lies in
        F^S only for S = [m]."""
        return self.complement and any(len(s) == self.m for s in self.sets)

    def describe(self) -> str:
        body = ";".join(",".join(str(x) for x in s) for s in self.sets)
        return f"<{body}>^c in F^{self.m}" if self.complement else f"<{body}> in F^{self.m}"


def parse_sets(text: str):
    """Parse "1,2,3;3,4,5" into [[1,2,3],[3,4,5]].  Whitespace is ignored."""
    groups = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            raise ValueError("empty generator in set list")
        members = []
        for item in chunk.split(","):
            item = item.strip()
            if not item:
                raise ValueError(f"empty coordinate in generator {chunk!r}")
            try:
                members.append(int(item))
            except ValueError:
                raise ValueError(f"coordinate {item!r} is not an integer") from None
        groups.append(members)
    return groups


def normalize_sets(sets):
    """Canonical generator list: dedup, drop contained sets, sort by (size, lex).

    Returns (kept, dropped) so callers can report what was discarded.
    """
    cleaned = [tuple(sorted(set(s))) for s in sets]
    kept = []
    dropped = []
    for s in sorted(cleaned, key=lambda t: (-len(t), t)):
        if any(set(s) <= set(t) for t in kept):
            dropped.append(s)
        else:
            kept.append(s)
    kept.sort(key=lambda t: (len(t), t))
    return tuple(kept), dropped


def normalize(m: int, sets, complement: bool) -> ComplexSpec:
    """Validate and canonicalize a defining-set description."""
    if m < 1:
        raise ValueError(f"ambient dimension must be positive, got {m}")
    if not sets:
        raise ValueError("at least one generating set is required")
    for s in sets:
        if not s:
            raise ValueError("generating sets must be nonempty")
        for x in s:
            if not 1 <= int(x) <= m:
                raise ValueError(f"coordinate {x} outside 1..{m}")
    kept, _ = normalize_sets(sets)
    return ComplexSpec(m=m, sets=kept, complement=bool(complement))


def member(spec: ComplexSpec, v) -> bool:
    """Is v in the defining set?  Pure support arithmetic."""
    supp = {i + 1 for i, x in enumerate(v) if x != 0}
    inside = any(supp <= set(s) for s in spec.sets)
    return not inside if spec.complement else inside


def union_terms(sets, max_enum=None) -> dict:
    """{S: c_S}, S a bitmask (bit j - 1 for coordinate j), with
    [v in U] = sum c_S [v in F^S] for U the union of the F^{S_i}.

    A generator at most doubles the terms (plus its own), so the count is
    checked against the cap before each one is added."""
    terms = {}
    for s in sets:
        check_cap(2 * len(terms) + 1, max_enum, what="inclusion-exclusion terms")
        g = sum(1 << (j - 1) for j in s)
        for key, coeff in [(g, 1)] + [(key & g, -c) for key, c in terms.items()]:
            terms[key] = terms.get(key, 0) + coeff
        terms = {key: coeff for key, coeff in terms.items() if coeff}
    return terms


def union_size(terms, q: int) -> int:
    """|U| over GF(q) from its ``union_terms``: sum c_S q^|S|."""
    return sum(c * q ** key.bit_count() for key, c in terms.items())


def cardinality(spec: ComplexSpec, q: int, max_enum=None) -> int:
    inside = union_size(union_terms(spec.sets, max_enum), q)
    return q**spec.m - inside if spec.complement else inside


def member_codes(spec: ComplexSpec, q: int, max_enum=None):
    """Sorted integer codes of every member.  Each branch is capped by what
    it holds, before any work: a union lists every generator's codes,
    sum q^|S_i| of them before duplicates go ("generator codes"); a
    complement masks the q^m vectors of the ambient space, striking one
    generator's codes at a time."""
    m = spec.m
    if spec.complement:
        check_cap(q**m, max_enum, what="vectors of the ambient space")
    else:
        check_cap(sum(q ** len(s) for s in spec.sets), max_enum, what="generator codes")
    top = max(sum((q - 1) * q ** (m - pos) for pos in s) for s in spec.sets)
    if top >= 2**63:  # codes are built in int64
        raise OverflowError(f"member code {top} does not fit in 64 bits")
    digits = np.arange(q, dtype=np.int64)

    def codes_of(s):
        codes = np.zeros(1, dtype=np.int64)
        for pos in s:
            codes = np.add.outer(codes, q ** (m - pos) * digits).ravel()
        return codes

    if spec.complement:
        keep = np.ones(q**m, dtype=bool)
        for s in spec.sets:
            keep[codes_of(s)] = False
        return np.flatnonzero(keep).tolist()
    inside = np.concatenate([codes_of(s) for s in spec.sets])
    # each generator's codes are already an ascending run, which a stable
    # sort merges; np.unique would import numpy.ma on first use (about
    # 16 ms and 1.3 MB per process)
    inside.sort(kind="stable")
    first = np.empty(len(inside), dtype=bool)
    first[0] = True
    np.not_equal(inside[1:], inside[:-1], out=first[1:])
    return inside[first].tolist()


def enumerate_members(spec: ComplexSpec, field: Field, max_enum=None):
    """Members as coordinate tuples, ascending code order."""
    codes = member_codes(spec, field.q, max_enum)
    mat = codes_to_matrix(codes, field.q, spec.m)
    return [tuple(int(x) for x in row) for row in mat]


def k_space(spec: ComplexSpec, field: Field) -> Subspace:
    """Orthogonal complement K of the span of the defining set D.

    D depends only on supports, so K is read off the generators and no
    member is enumerated.  A face is a subset of some generator.  Without
    the complement flag K is the coordinate subspace off the union of the
    generators.  With it, D holds every vector whose support is not a
    face: an empty D (``ComplexSpec.empty``) gives K = F^m, and otherwise
    D holds every vector of full support.  For q > 2 those span F^m (the
    all-ones vector minus itself with lambda outside {0, 1} at position j
    is (1 - lambda) e_j), so K = 0.  For q = 2 let I hold the i for which
    [m] - {i} is a generator: e_j lies in the span for every j outside I
    and every non-face contains I, so K is the even-weight vectors
    supported on I, of dimension max(0, |I| - 1).  A coordinate K's unit
    rows, in ascending order, are already its canonical RREF basis; the
    q = 2 basis comes from ``subspace_from_vectors``.
    """
    m = spec.m
    full = set(range(1, m + 1))
    gens = [set(s) for s in spec.sets]
    if not spec.complement or spec.empty:
        axes = range(1, m + 1) if spec.complement else sorted(full - set().union(*gens))
        zeros = (0,) * m
        rows = tuple(zeros[: i - 1] + (1,) + zeros[i:] for i in axes)
        return Subspace(ambient=m, dim=len(rows), basis=rows, pivots=tuple(i - 1 for i in axes))
    inner = [i for i in range(1, m + 1) if full - {i} in gens] if field.q == 2 else []
    rows = [tuple(int(j in (inner[0], i)) for j in range(1, m + 1)) for i in inner[1:]]
    return subspace_from_vectors(field, rows, m)


def restrict(spec: ComplexSpec, kernel: Subspace):
    """(C, D read at C): C the ascending 0-based coordinates off the pivots
    of ``kernel`` (``k_space(spec)``), and the spec on |C| coordinates
    whose defining set is {v restricted to C : v in D}, with a zero kernel.

    F^m is K plus F^C, and D lies in K-perp, so reading at C is one to one
    on D.  A zero K keeps C = [m] and the spec itself.  Without the
    complement flag C is the union of the generators, which are
    relabeled onto 1..|C| in order.  With it K is nonzero only at q = 2,
    where I (the i whose [m] - {i} is a generator) is the support of K's
    basis and C keeps only the last member t of I.  Every generator either
    is some [m] - {i} or contains I, and every v in D is 1 on I, so D at C
    is the complement of the union of F^(C - {t}) and of F^(S meet C) for
    each generator S containing I; C - {t} is empty when C = {t}, so this
    is built by ``normalize_sets``, which ``normalize`` would refuse."""
    pivots = set(kernel.pivots)
    columns = tuple(j for j in range(spec.m) if j not in pivots)
    if not kernel.dim:
        return columns, spec
    label = {j + 1: i for i, j in enumerate(columns, start=1)}
    sets = spec.sets
    if spec.complement:
        inner = {j + 1 for row in kernel.basis for j, x in enumerate(row) if x}
        sets = [[j for j in label if j not in inner]] + [s for s in sets if inner <= set(s)]
    kept, _ = normalize_sets([[label[j] for j in s if j in label] for s in sets])
    return columns, ComplexSpec(m=len(columns), sets=kept, complement=spec.complement)
