import dataclasses
import gc
import hashlib
import math
import random
import tracemalloc
from collections import Counter
from itertools import combinations, product

import numpy as np
import pytest

from ghw import cli
from ghw.code import (
    BoundViolation,
    WeightHierarchy,
    _character_sums,
    _orthogonal_counts,
    _search,
    _search_context,
    _support_table,
    _uses_character_sum,
    _valid_mask,
    build_code,
    check_hierarchy_bounds,
    ghw_prop1,
    hierarchy_prop1,
)
from ghw.config import ResourceCapError
from ghw.field import field_new
from ghw.formulas import NotApplicable, hierarchy_formula
from ghw.linalg import (
    _CHUNK,
    _CHUNK_BYTES,
    _bases_layout,
    codes_to_matrix,
    enumerate_subspaces,
    gaussian_binomial,
    rref,
    span_vectors,
    subspace_bases_array,
    subspace_count,
    subspace_from_vectors,
)
from ghw.oracle import ghw_definitional, hierarchy_definitional
from ghw.reference import run_reference_checks
from ghw.simplicial import cardinality, k_space, member_codes, normalize, union_terms

F2 = field_new(2)
F3 = field_new(3)
F4 = field_new(2, 2)


# ---- building the generator ---------------------------------------------


def test_build_code_shapes_and_columns():
    spec = normalize(2, [[1], [2]], False)
    code = build_code(F2, spec)
    assert code.n == 3 and code.k == 2
    assert code.generator.shape == (2, 3)
    # columns are the defining vectors in ascending code order
    assert code.generator.T.tolist() == [[0, 0], [0, 1], [1, 0]]


def test_build_code_dimension_drops_without_coverage():
    spec = normalize(5, [[2, 3]], False)
    code = build_code(F3, spec)
    assert code.n == 9
    assert code.k == 2
    assert code.kernel.dim == 3


def test_build_code_degenerate_complement():
    spec = normalize(3, [[1, 2], [2, 3]], True)
    code = build_code(F2, spec)
    assert code.n == 2
    assert code.k == 2  # the span is a plane, not the whole space


def test_build_code_rejects_empty_defining_set():
    spec = normalize(3, [[1, 2, 3]], True)
    with pytest.raises(ValueError):
        build_code(F2, spec)


def test_a_union_listing_is_capped_by_its_generator_codes():
    """A union lists every generator's codes before duplicates go, so that
    sum is what the cap bounds: [6] - {i} over GF(2) has 63 members but 6 x
    2^5 = 192 generator codes."""
    spec = normalize(6, [[j for j in range(1, 7) if j != i] for i in range(1, 7)], False)
    with pytest.raises(ResourceCapError, match="refusing to enumerate 192 generator codes"):
        build_code(F2, spec, max_enum=100)
    assert build_code(F2, spec, max_enum=192).n == 63


def test_an_empty_defining_set_is_refused_before_any_member(monkeypatch):
    """An empty D is read off the generators, so neither the code nor the
    search context enumerates or allocates anything to refuse it."""

    def refuse(*args, **kwargs):
        raise AssertionError("sized or enumerated an empty D")

    monkeypatch.setattr("ghw.code.member_codes", refuse)
    monkeypatch.setattr("ghw.code.union_terms", refuse)
    spec = normalize(16, [list(range(1, 17))], True)
    for build in (build_code, _search_context):
        with pytest.raises(ValueError, match=r"defining set <1,.*,16>\^c in F\^16 is empty"):
            build(F2, spec)


def test_hierarchy_validation():
    spec = normalize(2, [[1, 2]], False)
    with pytest.raises(ValueError):
        WeightHierarchy(spec, 4, 2, (3, 3), ("x", "x"), "test")
    with pytest.raises(ValueError):
        WeightHierarchy(spec, 4, 2, (2, 5), ("x", "x"), "test")
    with pytest.raises(ValueError):
        WeightHierarchy(spec, 4, 2, (2,), ("x",), "test")
    with pytest.raises(ValueError):
        WeightHierarchy(spec, 4, 2, (2, 3), ("x",), "test")


# ---- subspace search ----------------------------------------------------


def test_search_agrees_with_subcode_enumeration():
    """Both directions computed independently on a seeded batch, including
    specifications whose union misses coordinates (nontrivial kernel)."""
    rng = random.Random(41)
    for field in (F2, F3):
        done = 0
        while done < 12:
            m = rng.randrange(2, 5)
            sets = [
                rng.sample(range(1, m + 1), rng.randrange(1, m + 1))
                for _ in range(rng.randrange(1, 3))
            ]
            comp = rng.random() < 0.4
            spec = normalize(m, sets, comp)
            if cardinality(spec, field.q) == 0:
                continue
            searched = hierarchy_prop1(field, spec)
            brute = hierarchy_definitional(build_code(field, spec))
            assert searched.values == brute.values, spec
            assert searched.k == brute.k
            done += 1


def test_missing_coordinates_search_as_the_relabeled_spec():
    """A plain spec whose generators miss coordinates is searched on the
    coordinates of their union, C: it has the n, k and values of the same
    generators relabeled onto 1..|C|, and its witnesses are theirs placed
    at C's columns."""
    rng = random.Random(20)
    for field in (F2, F3, F4):
        for _ in range(8):
            m = rng.randrange(3, 7)
            union = sorted(rng.sample(range(1, m + 1), rng.randrange(1, m)))
            # the singletons make the union exactly C; normalize drops the covered ones
            sets = [rng.sample(union, rng.randrange(1, len(union) + 1)) for _ in range(3)]
            sets += [[j] for j in union]
            label = {j: i for i, j in enumerate(union, start=1)}
            spec = normalize(m, sets, False)
            relabeled = normalize(len(union), [[label[j] for j in s] for s in sets], False)
            got, want = hierarchy_prop1(field, spec), hierarchy_prop1(field, relabeled)
            assert (got.n, got.k, got.values) == (want.n, want.k, want.values), spec
            columns = [j - 1 for j in union]
            for wide, narrow in zip(got.witnesses, want.witnesses):
                basis = np.array(wide.basis)
                assert not np.delete(basis, columns, axis=1).any()
                assert basis[:, columns].tolist() == [list(row) for row in narrow.basis]


def test_search_handles_extension_fields():
    spec = normalize(3, [[1], [2, 3]], False)
    searched = hierarchy_prop1(F4, spec)
    brute = hierarchy_definitional(build_code(F4, spec))
    assert searched.values == brute.values


# sha256 of the records below as the search over F^C produced them: on
# specs with a kernel the witness is the first optimum inside F^C
_EXTENSION_WITNESS_SHA256 = "2fc1291247d684b0435102273baa93929d9c746c0d664fb9e097eb9bd2b5c4db"


def _antichains(m, most=3):
    """Every family of one to ``most`` pairwise incomparable nonempty
    subsets of 1..m, sorted by (count, family)."""
    subsets = [c for k in range(1, m + 1) for c in combinations(range(1, m + 1), k)]
    families = [
        family
        for count in range(1, most + 1)
        for family in combinations(subsets, count)
        if not any(set(a) < set(b) for a in family for b in family)
    ]
    return sorted(families, key=lambda family: (len(family), family))


def test_extension_field_witnesses_are_pinned():
    """Values and witnesses of the search over GF(4), GF(8) and GF(9) on
    every small antichain, both flags, hashed; the subcode enumeration
    agrees with every value at m <= 3."""
    digest = hashlib.sha256()
    records = 0
    for p, e, ms in ((2, 2, (2, 3, 4)), (2, 3, (2, 3)), (3, 2, (2, 3))):
        field = field_new(p, e)
        for m in ms:
            for family in _antichains(m):
                for complement in (False, True):
                    spec = normalize(m, [list(s) for s in family], complement)
                    try:
                        h = hierarchy_prop1(field, spec)
                    except ValueError as exc:
                        record = (field.q, m, spec.sets, complement, "ValueError", str(exc))
                    else:
                        witnesses = tuple(w.basis for w in h.witnesses)
                        record = (field.q, m, spec.sets, complement, h.values, witnesses)
                        if m <= 3:
                            brute = hierarchy_definitional(build_code(field, spec))
                            assert brute.values == h.values, spec
                    digest.update(repr(record).encode())
                    records += 1
    assert records == 400
    assert digest.hexdigest() == _EXTENSION_WITNESS_SHA256


# the cells of the exhaustive sweeps: (field (p, e), m, most generators)
_SWEEP_CELLS = (
    ((2, 1), 4, 4), ((2, 1), 5, 3), ((2, 1), 6, 2),
    ((3, 1), 4, 3), ((2, 2), 3, 3), ((5, 1), 3, 3),
)


def _sweep(cells, nonzero_kernel, digest):
    """Every antichain of each cell, both flags, no sampling, keeping the
    specs whose kernel is nonzero or those whose kernel is zero: the
    search equals the definitional oracle on each, and so does every
    closed form that claims one.  Hashes (q, m, sets, complement, values)
    of each into ``digest``; returns (specs walked, specs claimed)."""
    records = claimed = 0
    for (p, e), m, most in cells:
        field = field_new(p, e)
        for family in _antichains(m, most):
            for complement in (False, True):
                spec = normalize(m, [list(s) for s in family], complement)
                if spec.empty or bool(k_space(spec, field).dim) != nonzero_kernel:
                    continue
                values = hierarchy_prop1(field, spec).values
                assert values == hierarchy_definitional(build_code(field, spec)).values, spec
                try:
                    assert hierarchy_formula(field.q, spec).values == values, spec
                    claimed += 1
                except NotApplicable:
                    pass
                digest.update(repr((field.q, m, spec.sets, complement, values)).encode())
                records += 1
    return records, claimed


# sha256 of the (q, m, sets, complement, values) records below
_KERNEL_SWEEP_SHA256 = "5996ce1a2988daf5e9e5db1542e145e89c1b90f6b2454a5362222095a8eae6e5"


def test_every_small_kernel_spec_agrees_with_the_subcode_enumeration():
    """Every antichain whose spec has a nonzero kernel, both flags, no
    sampling: q=2 at m=4 (at most four generators), m=5 (three) and m=6
    (two); q=3 m=4, GF(4) m=3 and q=5 m=3 (three).  The search over F^C
    equals the definitional oracle on all 1,851, and so does every closed
    form that claims one (none does today: the tables need a covering
    union, or a complement with K = 0)."""
    digest = hashlib.sha256()
    assert _sweep(_SWEEP_CELLS, True, digest) == (1851, 0)
    assert digest.hexdigest() == _KERNEL_SWEEP_SHA256


# sha256 of the (q, m, sets, complement, values) records below
_ZERO_KERNEL_SWEEP_SHA256 = "9ca65375504c1b08f54581f448408e006697b9af3e391d1b1e44fb42f7e69c95"


def test_every_small_zero_kernel_spec_agrees_three_ways():
    """The other half of the cells above: every antichain whose spec has
    a zero kernel, both flags, no sampling.  The closed forms claim 3,319
    of its 4,441 specs; on each of those the table, the search and the
    definitional oracle agree, and on the rest the search and the oracle
    do.  Then the same at m=3 (at most three generators) over q=7, GF(8)
    and GF(9), an extension field of odd characteristic: 78 specs, 75 of
    them claimed."""
    digest = hashlib.sha256()
    assert _sweep(_SWEEP_CELLS, False, digest) == (4441, 3319)
    wider = (((7, 1), 3, 3), ((2, 3), 3, 3), ((3, 2), 3, 3))
    assert _sweep(wider, False, digest) == (78, 75)
    assert digest.hexdigest() == _ZERO_KERNEL_SWEEP_SHA256


# the q=3 m=5 cell, at most two generators: (field (p, e), m, most generators)
_Q3M5_CELL = (((3, 1), 5, 2),)


@pytest.mark.parametrize(
    "nonzero_kernel, walked, digest",
    [
        (True, (225, 0), "6e404b8ff4d206df08353f17d42c6ed9460e33024ee7777e2316f7dcf2d81776"),
        (False, (406, 406), "f96ad1a891d661a777a827c9a363144e4e17979784fea397f43f466b3b812bd0"),
    ],
    ids=["kernel", "zero-kernel"],
)
def test_every_q3m5_spec_agrees_with_the_subcode_enumeration(nonzero_kernel, walked, digest):
    """Every antichain of at most two generators in F_3^5, both flags, no
    sampling, each kernel kind hashed on its own: 225 unions that miss a
    coordinate (K is zero for every complement at q = 3), and 406 specs
    with K = 0, every one claimed by a closed form.  Each hierarchy runs
    ranks 2..k against the Griesmer bound from d_1."""
    hashed = hashlib.sha256()
    assert _sweep(_Q3M5_CELL, nonzero_kernel, hashed) == walked
    assert hashed.hexdigest() == digest


# the q=2 m=6 cell, at most three generators
_Q2M6_CELL = (((2, 1), 6, 3),)


@pytest.mark.slow
@pytest.mark.parametrize(
    "nonzero_kernel, walked, digest",
    [
        (True, (6932, 0), "a3670209a2aefaf111442ba36f5ee991224d8fe7f7e6e32578f1cfe9d0cdb329"),
        (False, (23895, 10430), "08a02ed08f6a8a2e36d07bbb23a213ba043d4c0da15c8740dda3b5eef1d21801"),
    ],
    ids=["kernel", "zero-kernel"],
)
def test_every_q2m6_spec_agrees_with_the_subcode_enumeration(nonzero_kernel, walked, digest):
    """Every antichain of at most three generators in F_2^6, both flags,
    no sampling, each kernel kind hashed on its own: 6,932 specs with a
    nonzero kernel, none claimed by a closed form, and 23,895 with K = 0,
    10,430 of them claimed.  It takes about 45 s, so the default run
    deselects it; select it with ``-m slow``."""
    hashed = hashlib.sha256()
    assert _sweep(_Q2M6_CELL, nonzero_kernel, hashed) == walked
    assert hashed.hexdigest() == digest


def test_witness_attains_the_weight():
    spec = normalize(4, [[1, 2], [2, 3, 4]], False)
    code = build_code(F2, spec)
    kept = hierarchy_prop1(F2, spec).witnesses
    for r in range(1, code.k + 1):
        value, witness = ghw_prop1(F2, spec, r)
        assert witness.dim == r
        assert kept[r - 1] == witness
        # count defining vectors annihilated by the witness
        basis = np.array(witness.basis, dtype=np.int64)
        defining = code.generator.T
        hits = int((~np.any((basis @ defining.T) % 2, axis=0)).sum())
        assert code.n - hits == value


def test_search_is_thread_count_independent():
    """The hierarchy takes no thread count: it is the search of each rank
    alone, run in turn, values and witnesses both."""
    spec = normalize(5, [[1, 2, 3], [3, 4, 5]], False)
    serial = hierarchy_prop1(F2, spec)
    for r in range(1, serial.k + 1):
        assert ghw_prop1(F2, spec, r) == (serial.values[r - 1], serial.witnesses[r - 1])


def test_one_rank_takes_no_thread_count():
    """``max_enum`` is keyword-only, so an extra positional argument, such
    as an old thread count, fails instead of becoming a cap, for one rank,
    for the hierarchy and for the reference suite."""
    spec = normalize(5, [[1, 2, 3], [3, 4, 5]], False)
    with pytest.raises(TypeError):
        ghw_prop1(F2, spec, 1, 4)
    with pytest.raises(TypeError):
        hierarchy_prop1(F2, spec, 2)
    with pytest.raises(TypeError):
        run_reference_checks("thm2", 2)


def test_search_respects_cap():
    spec = normalize(5, [[1, 2, 3], [3, 4, 5]], False)
    with pytest.raises(ResourceCapError):
        ghw_prop1(F2, spec, 2, max_enum=50)


@pytest.mark.parametrize("calls", [1, 2])
def test_every_cap_is_checked_before_anything_is_allocated(monkeypatch, calls):
    """q=3 m=3 `1,2;3` takes the character sum at rank 1 and the member
    product at rank 2, whose side's 33 F_p entries are over a cap of 20
    (every G(3, r) is under it).  The refusal comes before the U-hat
    table is built, the side is listed or any chunk is scored, and a
    refused call leaves nothing half built: a second call is refused the
    same way."""

    def refuse(*args, **kwargs):
        raise AssertionError("allocated before every cap was checked")

    for name in ("_support_table", "member_codes", "_orthogonal_counts"):
        monkeypatch.setattr(f"ghw.code.{name}", refuse)
    spec = normalize(3, [[1, 2], [3]], False)
    for _ in range(calls):
        with pytest.raises(ResourceCapError, match="refusing to enumerate 33 F_p entries of the scanned side"):
            hierarchy_prop1(F3, spec, max_enum=20)


def test_hierarchy_refuses_an_oversized_rank_before_searching(monkeypatch):
    """Rank 4 has 53,743,987 candidates, over the default cap, so the whole
    hierarchy is refused before rank 1 is searched; a single rank checks
    only its own count."""
    monkeypatch.delenv("GHW_MAX_ENUM", raising=False)
    spec = normalize(10, [[1, 2, 3, 4, 5], [5, 6, 7, 8, 9, 10]], False)
    assert ghw_prop1(F2, spec, 1)[0] == 16
    calls = []
    monkeypatch.setattr("ghw.code._search", lambda *args: calls.append(args))
    with pytest.raises(ResourceCapError, match="refusing to enumerate 53743987 4-dim"):
        hierarchy_prop1(F2, spec)
    assert calls == []


def test_count_refusals_are_pinned():
    """The search, the oracle and the enumerator share one count check,
    and each keeps its own refusal text."""
    spec = normalize(5, [[1, 2, 3], [3, 4, 5]], False)
    code = build_code(F2, spec)
    tail = "(cap 30; raise GHW_MAX_ENUM or --max-enum to allow)"
    space = "subspaces of dimension-5 space"
    cases = [
        (lambda: ghw_prop1(F2, spec, 2, max_enum=30), f"155 2-dim {space}"),
        (lambda: list(enumerate_subspaces(F2, 5, 3, max_enum=30)), f"155 3-dim {space}"),
        (lambda: ghw_definitional(code, 2, max_enum=30), "155 2-dim subcodes"),
        (lambda: ghw_definitional(code, 5, max_enum=30), "31 1-dim subcodes"),
        (lambda: hierarchy_definitional(code, max_enum=30), "31 1-dim subcodes"),
    ]
    for run, what in cases:
        with pytest.raises(ResourceCapError) as exc:
            run()
        assert str(exc.value) == f"refusing to enumerate {what} {tail}"


def test_witnesses_skip_the_scalar_reduction(monkeypatch):
    """A witness is a candidate basis, already canonical RREF, so it
    becomes a Subspace without another row reduction."""
    calls = []
    monkeypatch.setattr(
        "ghw.code.subspace_from_vectors", lambda *a: calls.append(a), raising=False
    )
    h = hierarchy_prop1(F3, normalize(4, [[1, 2], [2, 3, 4]], False))
    assert calls == []
    monkeypatch.undo()
    for r, w in enumerate(h.witnesses, start=1):
        assert w.dim == r
        assert w == subspace_from_vectors(F3, w.basis, 4)


@pytest.mark.parametrize("field", [F2, F3, F4], ids=["q2", "q3", "q4"])
def test_valid_mask_matches_a_rank_check(field):
    """Every candidate at m <= 4, against every kernel k_space gives for
    one or two generators with or without the complement flag: the rank
    check (basis plus K has rank r + dim K) holds exactly when no nonzero
    vector of the candidate's span is a vector of K, both spans listed."""
    q = field.q
    for m in range(1, 5):
        subsets = [
            list(c) for size in range(1, m + 1) for c in combinations(range(1, m + 1), size)
        ]
        kernels = set()
        for sets in [[a] for a in subsets] + [list(p) for p in combinations(subsets, 2)]:
            for complement in (False, True):
                kernels.add(k_space(normalize(m, sets, complement), field))
        assert any(kernel.dim for kernel in kernels)
        for kernel in kernels:
            basis = np.asarray(kernel.basis, dtype=np.int64).reshape(kernel.dim, m)
            inside = set(map(tuple, span_vectors(field, basis).tolist()))
            for r in range(1, m + 1):
                bases = subspace_bases_array(q, m, r, 0, gaussian_binomial(m, r, q))
                want = [
                    inside.isdisjoint(map(tuple, span_vectors(field, b).tolist())) for b in bases
                ]
                assert _valid_mask(field, bases, kernel).tolist() == want, (m, kernel, r)


@pytest.mark.parametrize(
    "field",
    [F2, F3, F4, field_new(5), field_new(3, 2)],
    ids=["q2", "q3", "q4", "q5", "q9"],
)
def test_valid_mask_matches_the_stacked_rank_definition(field):
    """Random batches of r x m matrices, independent or not, against
    random kernels from ``subspace_from_vectors`` (and, at q = 2, the
    kernels of complements, even-weight vectors on I): the mask holds
    exactly where the rows stacked on all of K's basis have rank
    r + dim K, the definition the mask reduces to r rows."""
    rng = random.Random(field.q)
    kernels = []
    for _ in range(40):
        m = rng.randint(2, 7)
        vectors = [[rng.randrange(field.q) for _ in range(m)] for _ in range(rng.randint(1, m - 1))]
        kernels.append(subspace_from_vectors(field, vectors, m))
    if field.q == 2:
        for m in range(3, 7):
            gens = [[j for j in range(1, m + 1) if j != i] for i in range(1, m + 1)]
            for count in range(2, m + 1):
                kernels.append(k_space(normalize(m, gens[:count], True), field))
    batches = 0
    for kernel in kernels:
        if not kernel.dim:
            continue
        m = kernel.ambient
        for _ in range(6):
            r = rng.randint(1, m - kernel.dim)
            bases = np.array(
                [[[rng.randrange(field.q) for _ in range(m)] for _ in range(r)] for _ in range(8)],
                dtype=np.int64,
            )
            want = [
                rref(field, basis + list(kernel.basis))[1] == r + kernel.dim for basis in bases.tolist()
            ]
            assert _valid_mask(field, bases, kernel).tolist() == want, (kernel, bases)
            batches += 1
    assert batches >= 150


def test_valid_mask_reduces_only_the_witness_rows(monkeypatch, capsys):
    """`params --q 2 --m 1600 --sets 1,2` has a 1,598-dim coordinate
    kernel; the rank-1 witness check row-reduces its one cleared row and
    never the witness stacked on K's basis."""
    seen = []

    def counting(field, rows):
        rows = [list(row) for row in rows]
        seen.append(len(rows))
        return rref(field, rows)

    monkeypatch.setattr("ghw.code.rref", counting)
    assert cli.main(["params", "--q", "2", "--m", "1600", "--sets", "1,2"]) == 0
    assert capsys.readouterr().out.startswith("[4, 2, 2] code over GF(2), <1,2> in F^1600")
    assert seen == [1]


def test_the_search_context_resolves_the_cap_once(monkeypatch):
    """The context checks every cap of its ranks against the cap it
    resolved, so a search reads no GHW_MAX_ENUM; a malformed value still
    fails the next context."""
    spec = normalize(4, [[1, 2], [3, 4]], False)
    monkeypatch.setenv("GHW_MAX_ENUM", "34")  # G(4, 2) = 35
    with pytest.raises(ResourceCapError, match="refusing to enumerate 35 2-dim"):
        _search_context(F2, spec)
    monkeypatch.setenv("GHW_MAX_ENUM", "1000")
    ctx = _search_context(F2, spec)
    monkeypatch.setenv("GHW_MAX_ENUM", "lots")
    assert _search(ctx, 2)[0] == ghw_prop1(F2, spec, 2, max_enum=1000)[0]
    with pytest.raises(ValueError, match="GHW_MAX_ENUM must be an integer, got 'lots'"):
        _search_context(F2, spec)


def test_the_oracle_reuses_the_searchs_ranges_at_q2():
    """At q = 2 every basis is its own column-orbit representative, so the
    search asks for the plain ranges under the oracle's cache key: after
    the search on thm2 (q=2 m=5, every rank one chunk), the oracle's
    support table and all five ranks are cache hits."""
    spec = normalize(5, [[1, 2, 3], [3, 4, 5]], False)
    subspace_bases_array.cache_clear()
    hierarchy_prop1(F2, spec)
    code = build_code(F2, spec)
    before = subspace_bases_array.cache_info()
    assert hierarchy_definitional(code).values == (4, 6, 10, 12, 13)
    after = subspace_bases_array.cache_info()
    assert (after.misses - before.misses, after.hits - before.hits) == (0, 6)


def test_rank_bounds_are_enforced():
    spec = normalize(4, [[1, 2]], False)  # dimension 2
    with pytest.raises(ValueError):
        ghw_prop1(F2, spec, 3)
    with pytest.raises(ValueError):
        ghw_prop1(F2, spec, 0)


def test_search_memory_is_bounded_by_the_chunk():
    """No candidate array outlives the search: after it, only the chunk
    cache is still held, and the peak stays near that size (rank 4, all
    200,787 bases scored, would hold 51 MB of bases alone)."""
    spec = normalize(8, [[1, 2, 3], [3, 4, 5], [5, 6, 7], [1, 7, 8]], False)  # no kernel
    subspace_bases_array.cache_clear()
    cache_bytes = subspace_bases_array.cache_info().maxsize * _CHUNK * 8 * 8 * 8
    tracemalloc.start()
    try:
        assert hierarchy_prop1(F2, spec).values == (4, 8, 11, 15, 17, 21, 23, 24)
        _, peak = tracemalloc.get_traced_memory()
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < cache_bytes + 4 * 2**20, held
    assert peak < 40 * 2**20, peak


def _scoring_calls(monkeypatch, record):
    """Route every scoring call through record(bases, vectors) first."""

    def counting(field, bases, vectors, *args):
        record(bases, vectors)
        return _orthogonal_counts(field, bases, vectors, *args)

    monkeypatch.setattr("ghw.code._orthogonal_counts", counting)


# the pinned early-exit cases below: (field, m, sets, complement)
_EARLY_EXIT_SPECS = {
    "q3m7-complement": (F3, 7, [[1, 2, 3], [4, 5, 6]], True),
    "q2m8": (F2, 8, [[1, 2, 3, 4], [4, 5, 6, 7, 8]], False),
    "q2m10-kernel": (F2, 10, [[1, 2, 3, 4], [4, 5, 6, 7, 8]], False),
    "q2m8-kernel": (F2, 8, [[1, 2, 3], [3, 4, 5]], False),
    "q2m7-complement-kernel": (F2, 7, [[2, 3, 4, 5, 6, 7], [1, 3, 4, 5, 6, 7], [1, 2, 4, 5, 6, 7]], True),
    "both-q2m9": (F2, 9, [[1, 2, 3, 4, 5], [5, 6, 7, 8, 9]], False),
}


@pytest.mark.parametrize(
    "case, generated, scored",
    [
        ("q3m7-complement", [1093, 4096, 20480, 4096, 4096, 1093, 1], [127, 500, 1966, 980, 1681, 550, 1]),
        ("q2m8", [255, 4096, 4096, 4096, 4096, 4096, 255, 1], [255, 4096, 4096, 4096, 4096, 4096, 255, 1]),
        ("q2m10-kernel", [255, 4096, 4096, 4096, 4096, 4096, 255, 1], [255, 4096, 4096, 4096, 4096, 4096, 255, 1]),
        ("q2m8-kernel", [31, 155, 155, 31, 1], [31, 155, 155, 31, 1]),
        ("q2m7-complement-kernel", [31, 155, 155, 31, 1], [31, 155, 155, 31, 1]),
        (
            "both-q2m9",
            [511, 4096, 4096, 4096, 4096, 4096, 4096, 511, 1],
            [511, 4096, 4096, 4096, 4096, 4096, 4096, 511, 1],
        ),
    ],
    ids=list(_EARLY_EXIT_SPECS),
)
def test_early_exit_rows_are_pinned(monkeypatch, case, generated, scored):
    """Rows generated and rows scored per rank before the early exit; over
    q > 2 only the orbit representatives of each chunk are scored.  A
    complement bound off by one leaves every weight unchanged but scans
    ranks 3-5 in full.  With a kernel only the G(k, r) bases of F^C are
    walked, and the bound is q^(k-r): q2m10-kernel is q2m8 on F^10 and
    stops where q2m8 does, which a bound of q^(m-r) never would.  The
    kernels of q2m8-kernel (dim 3) and q2m7-complement-kernel (dim 2,
    three generators [7] - {i}) leave G(5, r) bases per rank.  From rank 2
    on the Griesmer bound from d_1 stops rank 2 of q3m7-complement, q2m8
    and q2m10-kernel in their first chunk, and ranks 2 and 3 of both-q2m9:
    it scores 25,599 rows, where the bound q^(k-r) alone scores 848,877."""
    field, m, sets, complement = _EARLY_EXIT_SPECS[case]
    made, kept = Counter(), Counter()

    def generating(q, m, r, start, stop, orbits=False):
        made[r] += stop - start
        return subspace_bases_array(q, m, r, start, stop, orbits=orbits)

    monkeypatch.setattr("ghw.code.subspace_bases_array", generating)
    _scoring_calls(monkeypatch, lambda bases, out: kept.update({bases.shape[1]: len(bases)}))
    hierarchy_prop1(field, normalize(m, sets, complement))
    assert [made[r] for r in sorted(made)] == generated
    assert [kept[r] for r in sorted(kept)] == scored


# the search specs of the cold CLI requests not pinned above
_CLI_SEARCH_SPECS = {
    "both-q3m7": (F3, 7, [[1, 2, 3], [3, 4, 5], [5, 6, 7]], False),
    "both-gf4m6": (F4, 6, [[1, 2, 3], [4, 5, 6]], False),
    "both-q3m7-compl": (F3, 7, [[1, 2, 3], [4, 5, 6]], True),
    "verbose-q2m7": (F2, 7, [[1, 2, 3], [1, 2, 4, 5], [3, 4, 6, 7]], False),
    "params-search": (F2, 8, [[1, 2, 3], [3, 4, 5], [5, 6, 7], [1, 7, 8]], False),
}


@pytest.mark.parametrize("case", [*_EARLY_EXIT_SPECS, *_CLI_SEARCH_SPECS])
def test_the_griesmer_stop_never_moves_a_witness(case):
    """The hierarchy stops ranks 2..k at the Griesmer bound from d_1 as well;
    one rank searched alone keeps only the bound q^(k-r).  Both bounds are
    theorems, so the first chunk to reach either holds the canonical-first
    optimum: every value and witness is the same."""
    field, m, sets, complement = {**_EARLY_EXIT_SPECS, **_CLI_SEARCH_SPECS}[case]
    spec = normalize(m, sets, complement)
    h = hierarchy_prop1(field, spec)
    for r in range(1, h.k + 1):
        value, witness = ghw_prop1(field, spec, r)
        assert h.values[r - 1] == value
        assert h.witnesses[r - 1] == witness, r


def test_a_chunk_above_the_griesmer_bound_raises(monkeypatch):
    """A rank-2 count above n - d_1 - ceil(d_1 / q), yet within q^(k-2),
    is a fault of the scoring: the search raises and returns no value,
    clamped or not."""
    spec = normalize(8, [[1, 2, 3, 4], [4, 5, 6, 7, 8]], False)  # the union side, counted as is
    h = hierarchy_prop1(F2, spec)
    d1 = h.values[0]
    above = h.n - d1 - math.ceil(d1 / 2) + 1
    assert above <= 2 ** (h.k - 2)

    def scoring(field, bases, vectors, *args):
        counts = _orthogonal_counts(field, bases, vectors, *args)
        if bases.shape[1] == 2:
            counts = counts.copy()
            counts[-1] = above
        return counts

    monkeypatch.setattr("ghw.code._orthogonal_counts", scoring)
    with pytest.raises(RuntimeError, match=f"rank 2 of .* scored {above}, above the bound {above - 1}"):
        hierarchy_prop1(F2, spec)


def test_search_chunks_are_sized_by_bytes():
    """Over GF(65521) at m = 2 the scanned side has 131,041 vectors, so a
    4096-row chunk would hold 4 GiB of products; chunks sized by bytes keep
    the whole search near _CHUNK_BYTES (it peaks at about 20 MiB)."""
    field = field_new(65521)
    spec = normalize(2, [[1], [2]], False)
    tracemalloc.start()
    try:
        h = hierarchy_prop1(field, spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert h.values == (65520, 131040)
    assert peak < 1.5 * _CHUNK_BYTES, peak


@pytest.mark.parametrize(
    "field",
    [F2, F3, F4, field_new(2, 3), field_new(3, 2)],
    ids=["q2", "q3", "q4", "q8", "q9"],
)
def test_orthogonal_counts_match_scalar_dot_products(field):
    """Every candidate basis of every rank at m <= 3, scored against all of
    F_q^m: the count of v with B v = 0, taken from scalar Field arithmetic."""
    q = field.q
    mul = [[field.mul(a, b) for b in range(q)] for a in range(q)]

    def dot(row, v):
        total = 0
        for a, b in zip(row, v):
            total = field.add(total, mul[a][b])
        return total

    for m in range(1, 4):
        vectors = np.array(list(product(range(q), repeat=m)), dtype=np.int64)
        for r in range(1, m + 1):
            bases = subspace_bases_array(q, m, r, 0, gaussian_binomial(m, r, q))
            want = [
                sum(all(dot(row, v) == 0 for row in basis) for v in vectors.tolist())
                for basis in bases.tolist()
            ]
            assert _orthogonal_counts(field, bases, vectors).tolist() == want, (m, r)


def test_word_member_product_holds_63_bits():
    """At q = 2 the member product packs rows and side vectors into int64
    words; at k = 63, with bit 62 set in every row and half the side, the
    counts equal those of scalar dot products mod 2."""
    rng = np.random.default_rng(63)
    bases = rng.integers(0, 2, size=(40, 3, 63), dtype=np.int64)
    bases[:, :, 62] = 1
    vectors = rng.integers(0, 2, size=(300, 63), dtype=np.int64)
    vectors[:150, 62] = 1
    vectors[150:160] = 0  # orthogonal to every basis
    want = [
        sum(all(sum(b * x for b, x in zip(row, v)) % 2 == 0 for row in basis) for v in vectors.tolist())
        for basis in bases.tolist()
    ]
    assert min(want) >= 10
    assert _orthogonal_counts(F2, bases, vectors).tolist() == want


def test_rank_62_of_62_coordinates_is_scored_in_words():
    """q = 2, m = 62, the 31 pairs {2i - 1, 2i}: n = 1 + 31 * 3 = 94 and
    rank 62 takes the member product on 62-bit words; H = F^62 leaves only
    the zero vector of D in H-perp, so d_62 = 93."""
    spec = normalize(62, [[2 * i - 1, 2 * i] for i in range(1, 32)], False)
    value, witness = ghw_prop1(F2, spec, 62)
    assert (value, witness.dim, witness.pivots) == (93, 62, tuple(range(62)))


def test_rank_k_past_63_bits_keeps_the_product():
    """At k = 64 a word cannot hold a vector; the one rank any cap admits
    there is r = k, a single basis, and it keeps the GF(2) product:
    H = F^64 leaves only the zero vector in H-perp, which the complement
    misses, so d_64 = n = 2^64 - 4."""
    spec = normalize(64, [[63, 64]], True)
    value, _ = ghw_prop1(F2, spec, 64)
    assert value == 2**64 - 4


def test_two_threads_match_the_serial_search_across_both_methods():
    """q=2 m=9 `1,2,3,4,5;5,6,7,8,9` scores ranks 1-5 by the character sum
    and ranks 6-9 by the member product, in turn; its values are pinned."""
    spec = normalize(9, [[1, 2, 3, 4, 5], [5, 6, 7, 8, 9]], False)
    assert hierarchy_prop1(F2, spec).values == (16, 24, 28, 30, 46, 54, 58, 60, 61)


# ---- one basis per column orbit -----------------------------------------

_ORBIT_FIELDS = [F3, F4, field_new(5), field_new(7), field_new(2, 3), field_new(3, 2)]


def _column_normalized(field, basis):
    """basis with each column divided by its first nonzero entry, in
    scalar Field arithmetic."""
    out = [list(row) for row in basis]
    for j in range(len(basis[0])):
        lead = next((row[j] for row in basis if row[j]), 0)
        if lead > 1:
            inv = field.inv(lead)
            for row in out:
                row[j] = field.mul(inv, row[j])
    return out


@pytest.mark.parametrize("field", _ORBIT_FIELDS, ids=lambda f: f"q{f.q}")
def test_orbit_representatives_cover_every_basis(field):
    """Every canonical basis B at m <= 4, every rank: the generator keeps B
    exactly when B is its own column-normalized form; that form is itself
    a canonical basis no later than B, every such form is generated, it
    meets K exactly when B does, and where B lies inside F^C it scores as
    B does, on a union spec (with a kernel from m = 3) and a complement
    spec.  Each pivot set keeps
    prod_j (1 + (q^c_j - 1) / (q - 1)) rows, c_j the free cells of column j."""
    q = field.q
    for m in range(1, 5):
        specs = [normalize(m, [[1, 2][:m]], False)]
        if m > 1:
            specs.append(normalize(m, [[1], [m]], True))
        contexts = [_search_context(field, spec) for spec in specs]
        sides = [codes_to_matrix(member_codes(c.side, q), q, c.k) for c in contexts]
        for r in range(1, m + 1):
            total = gaussian_binomial(m, r, q)
            bases = subspace_bases_array(q, m, r, 0, total)
            position = {tuple(map(tuple, b)): i for i, b in enumerate(bases.tolist())}
            reps = [_column_normalized(field, b) for b in bases.tolist()]
            for i, (b, rep) in enumerate(zip(bases.tolist(), reps)):
                assert position[tuple(map(tuple, rep))] <= i, (m, r, b)
            keep = [rep == b for b, rep in zip(bases.tolist(), reps)]
            generated = subspace_bases_array(q, m, r, 0, total, orbits=True)
            assert generated.tolist() == [b for b, k in zip(bases.tolist(), keep) if k]
            assert {tuple(map(tuple, rep)) for rep in reps} == {
                tuple(map(tuple, b)) for b in generated.tolist()
            }
            reps = np.asarray(reps, dtype=np.int64).reshape(bases.shape)
            for ctx, side in zip(contexts, sides):  # what the search uses
                # the bases the search builds: inside F^C, read at C's columns
                within = ~np.delete(bases, ctx.columns, axis=2).any(axis=(1, 2))
                assert np.array_equal(
                    _orthogonal_counts(field, reps[within][:, :, ctx.columns], side),
                    _orthogonal_counts(field, bases[within][:, :, ctx.columns], side),
                )
                assert np.array_equal(
                    _valid_mask(field, reps, ctx.kernel), _valid_mask(field, bases, ctx.kernel)
                )
            firsts, blocks, starts = _bases_layout(q, m, r)
            for first, stop, (_, free), kept in zip(
                firsts, firsts[1:], blocks, np.diff(starts)
            ):
                cells = Counter(j for _, j in free).values()
                want = math.prod(1 + (q**c - 1) // (q - 1) for c in cells)
                assert sum(keep[first:stop]) == want == kept, (m, r, free)
                assert len(subspace_bases_array(q, m, r, first, stop, orbits=True)) == want


@pytest.mark.parametrize("field", _ORBIT_FIELDS[:3], ids=lambda f: f"q{f.q}")
def test_witnesses_match_a_canonical_first_scan(field):
    """Values and witnesses of the search equal those of a scan over every
    canonical basis that meets K only in zero and has no entry at the
    leading coordinate of a vector of K (a basis of F^C), first optimum
    kept, scored with scalar Field dot products, on every small antichain
    at m <= 4 with both flags; K is found by brute force."""
    q = field.q
    add = [[field.add(a, b) for b in range(q)] for a in range(q)]
    mul = [[field.mul(a, b) for b in range(q)] for a in range(q)]

    def dot(u, v):
        total = 0
        for a, b in zip(u, v):
            total = add[total][mul[a][b]]
        return total

    for m in range(1, 5):
        vectors = list(product(range(q), repeat=m))
        zero = (0,) * m
        scans = {}  # r -> [(basis, its H-perp, its nonzero vectors)]
        for r in range(1, m + 1):
            scans[r] = []
            for basis in subspace_bases_array(q, m, r, 0, gaussian_binomial(m, r, q)).tolist():
                perp = {v for v in vectors if all(dot(row, v) == 0 for row in basis)}
                span = {zero}
                for row in basis:
                    span = {
                        tuple(add[x][mul[c][y]] for x, y in zip(u, row))
                        for u in span
                        for c in range(q)
                    }
                scans[r].append((basis, perp, span - {zero}))
        for family in _antichains(m):
            for complement in (False, True):
                inside = {
                    v
                    for v in vectors
                    if any(all(x == 0 or i + 1 in s for i, x in enumerate(v)) for s in family)
                }
                defining = set(vectors) - inside if complement else inside
                if not defining:
                    continue
                kernel = {v for v in vectors if all(dot(v, d) == 0 for d in defining)}
                leads = {next(i for i, x in enumerate(v) if x) for v in kernel - {zero}}
                h = hierarchy_prop1(field, normalize(m, [list(s) for s in family], complement))
                assert q**h.k * len(kernel) == q**m
                for r in range(1, h.k + 1):
                    best = witness = None
                    for basis, perp, span in scans[r]:
                        if span & kernel or any(row[i] for row in basis for i in leads):
                            continue
                        value = len(perp & defining)
                        if best is None or value > best:
                            best, witness = value, basis
                    assert h.values[r - 1] == len(defining) - best, (family, complement, r)
                    assert h.witnesses[r - 1].basis == tuple(map(tuple, witness))


# ---- character sums over H ----------------------------------------------

_CHARACTER_CELLS = [
    (F2, 6), (F3, 4), (F4, 4), (field_new(5), 4), (field_new(7), 4),
    (field_new(2, 3), 4), (field_new(3, 2), 4),
]


def _scalar_perp(field, bases, vectors):
    """(c, N), True where B v = 0: dot products from the scalar Field.add
    and Field.mul tables, taken entrywise for every basis and vector."""
    q = field.q
    add = np.array([[field.add(a, b) for b in range(q)] for a in range(q)])
    mul = np.array([[field.mul(a, b) for b in range(q)] for a in range(q)])
    dots = np.zeros((len(bases), bases.shape[1], len(vectors)), dtype=np.int64)
    for j in range(bases.shape[2]):
        dots = add[dots, mul[bases[:, :, j, None], vectors[None, None, :, j]]]
    return ~dots.any(axis=1)


@pytest.mark.parametrize("field, top", _CHARACTER_CELLS, ids=lambda c: getattr(c, "q", c))
def test_character_sums_match_member_and_scalar_counts(field, top):
    """Every canonical basis at m <= top; at q > 2 and m = top only the
    orbit representatives, the bases the search scores.  The member product
    finds B v = 0 for exactly the v that scalar dot products do, one
    vector at a time, so both count every side alike; and against every
    antichain of at most three generators the character sum over H gives
    the scalar count of the union; the complement's count is |H-perp|
    minus that.  The q = 2 complements include specs with a nonzero
    kernel."""
    q = field.q
    kernels = 0  # q = 2 complement specs with a nonzero kernel
    for m in range(1, top + 1):
        vectors = codes_to_matrix(range(q**m), q, m)
        support = (vectors != 0) @ (1 << np.arange(m))
        families = [normalize(m, [list(s) for s in f], False).sets for f in _antichains(m)]
        tables = np.array([_support_table(q, m, union_terms(sets)) for sets in families])
        inside = np.array(
            [
                np.any([support & ~sum(1 << (j - 1) for j in s) == 0 for s in sets], axis=0)
                for sets in families
            ],
            dtype=np.float64,
        )
        if q == 2:
            kernels += sum(
                k_space(normalize(m, sets, True), field).dim > 0
                for sets in families
                if len(sets[-1]) >= m - 1
            )
        for r in range(1, m + 1):
            orbits = m == top  # at q > 2, only the rows the search scores
            bases = subspace_bases_array(q, m, r, 0, gaussian_binomial(m, r, q), orbits=orbits)
            perp = _scalar_perp(field, bases, vectors)
            member = [_orthogonal_counts(field, bases, v[None]) for v in vectors]
            assert np.array_equal(np.column_stack(member), perp), (m, r)
            step = max(1, 2**21 // (q**r * len(bases)))  # 16 MiB of lookups
            union = np.concatenate(
                [_character_sums(field, bases, tables[i : i + step]) for i in range(0, len(tables), step)]
            )
            scalar = (inside @ perp.T.astype(np.float64)).astype(np.int64)
            assert np.array_equal(union, scalar), (m, r)
            # a complement side holds |H-perp| minus the union count
            assert (perp.sum(axis=1) == q ** (m - r)).all(), (m, r)
    assert kernels > 0 or q > 2


@pytest.mark.parametrize(
    "field, m, sets, complement, picks",
    [
        (F2, 9, [[1, 2, 3, 4, 5], [5, 6, 7, 8, 9]], False, [1, 2, 3, 4, 5]),
        (F3, 7, [[1, 2, 3], [3, 4, 5], [5, 6, 7]], False, [1, 2, 3]),
        (F4, 6, [[1, 2, 3], [4, 5, 6]], False, [1, 2]),
        (F2, 8, [[1, 2, 3], [3, 4, 5]], False, [1, 2, 3]),
        (F2, 6, [[1, 2, 3, 4, 5], [2, 3, 4, 5, 6]], False, [1, 2]),
        (F2, 6, [[1, 2, 3, 4, 5], [2, 3, 4, 5, 6]], True, [1, 2, 3]),
    ],
    ids=["both-q2m9", "both-q3m7", "both-gf4m6", "brute-q2m8", "q2m6-outside", "q2m6-compl"],
)
def test_character_sum_picks_are_pinned(field, m, sets, complement, picks):
    """The ranks scored by the character sum, for the benchmark's specs and
    for a union scanned through its complement (both flags; the
    complement spec and brute-q2m8 have a kernel, so their picks are
    priced on F^5).  Given the support table, the character sum gives
    |U meet H-perp| on the first rows of every rank of F^k: the member
    count of a union side, or |H-perp| minus that of a complement side."""
    ctx = _search_context(field, normalize(m, sets, complement))
    q, k = field.q, ctx.k
    side = codes_to_matrix(member_codes(ctx.side, q), q, k)
    assert len(side) == ctx.side_size
    assert [r for r in range(1, k + 1) if _uses_character_sum(field, k, r, len(side), ctx.terms)] == picks
    assert ctx.side.complement == (q == 2 and m == 6 and not complement)
    table = _support_table(q, k, ctx.terms)
    for r in range(1, k + 1):
        top = min(512, gaussian_binomial(k, r, q))
        bases = subspace_bases_array(q, k, r, 0, top)
        member = _orthogonal_counts(field, bases, side)
        if ctx.side.complement:
            member = q ** (k - r) - member
        assert np.array_equal(_orthogonal_counts(field, bases, side, table), member), r


def test_character_sum_refuses_what_int64_cannot_hold():
    """Over GF(65536) at m = 2, `1;2` keeps the member product at both
    ranks, and the search refuses it by the cap as before.  At m = 4,
    `1,2,3;2,3,4` would sum 2^16 (2 q^3 + q^2) > 2^63 at rank 1, so the
    character sum is refused there though its product is far smaller; over
    GF(256) the same rank takes it."""
    big = field_new(2, 16)
    spec = normalize(2, [[1], [2]], False)
    terms = union_terms(spec.sets)
    assert not any(_uses_character_sum(big, 2, r, 2 * big.q - 1, terms) for r in (1, 2))
    with pytest.raises(ResourceCapError, match="F_p entries of the scanned side"):
        hierarchy_prop1(big, spec)
    terms = union_terms(normalize(4, [[1, 2, 3], [2, 3, 4]], False).sets)
    for field, taken in ((big, False), (field_new(2, 8), True)):
        q = field.q
        assert (q * (2 * q**3 + q**2) >= 2**63) != taken
        assert _uses_character_sum(field, 4, 1, 2 * q**3 - q**2, terms) == taken


def test_character_sum_refuses_a_table_past_the_chunk_bytes():
    """The 2^m table of eight-byte sums must fit _CHUNK_BYTES: m = 21 fits
    exactly, m = 22 does not, though both ranks would win on cost."""
    for m, taken in ((21, True), (22, False)):
        half = m // 2
        sets = normalize(m, [list(range(1, half + 1)), list(range(half + 1, m + 1))], False).sets
        side = 2**half + 2 ** (m - half) - 1
        assert (8 * 2**m <= _CHUNK_BYTES) == taken
        assert _uses_character_sum(F2, m, 1, side, union_terms(sets)) == taken


def test_support_table_is_built_once_and_only_when_used(monkeypatch):
    """No rank of q=2 m=5 `1,2;3,4` takes the character sum, so no table
    is built; q=2 m=7 `1,2,3,4;4,5,6,7` takes it at ranks 1-4 and builds
    its table once, before any rank starts."""
    built = []

    def counting(q, m, terms):
        built.append((q, m))
        return _support_table(q, m, terms)

    monkeypatch.setattr("ghw.code._support_table", counting)
    hierarchy_prop1(F2, normalize(5, [[1, 2], [3, 4]], False))
    assert built == []
    spec = normalize(7, [[1, 2, 3, 4], [4, 5, 6, 7]], False)
    hierarchy_prop1(F2, spec)
    assert built == [(2, 7)]


def test_every_rank_is_planned_once(monkeypatch):
    """The context decides each rank's count check and pick once: a
    hierarchy of q=2 m=9 `1,2,3,4,5;5,6,7,8,9` (k = 9) makes nine of
    each, and its searches only scan."""
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr("ghw.code._uses_character_sum", counting("pick", _uses_character_sum))
    monkeypatch.setattr("ghw.code.subspace_count", counting("count", subspace_count))
    hierarchy_prop1(F2, normalize(9, [[1, 2, 3, 4, 5], [5, 6, 7, 8, 9]], False))
    assert calls == {"pick": 9, "count": 9}


def test_the_search_context_is_fixed_at_construction():
    """The context is frozen, with its picks, side and table set when it
    is built, and it searches only the ranks it planned."""
    spec = normalize(7, [[1, 2, 3, 4], [4, 5, 6, 7]], False)
    ctx = _search_context(F2, spec, ranks=(1, 5))
    assert ctx.picks == {1: True, 5: False}
    assert ctx.table is not None and ctx.small is not None
    with pytest.raises(dataclasses.FrozenInstanceError):
        ctx.table = None
    assert _search(ctx, 5)[0] == ghw_prop1(F2, spec, 5)[0]
    with pytest.raises(ValueError, match=r"rank 2 was not planned"):
        _search(ctx, 2)


# ---- theorem checks on every hierarchy ----------------------------------


def test_hierarchy_bounds_refuse_each_broken_inequality():
    """The Singleton bound d_r <= n - k + r and (q^r - 1) d_(r-1) <=
    (q^r - q) d_r: each hand-built violation raises and names its rank;
    a true hierarchy (q=2 m=3 `1,2,3`, the simplex code) passes."""
    assert check_hierarchy_bounds(2, 8, 3, (4, 6, 7)) == (4, 6, 7)
    with pytest.raises(BoundViolation, match=r"d_2 = 8 breaks the Singleton bound .* = 7") as info:
        check_hierarchy_bounds(2, 8, 3, (4, 8, 9))
    assert info.value.values == (4, 8, 9)
    with pytest.raises(ValueError, match=r"d_1 = 5 and d_2 = 6 break .* at r = 2, q = 2"):
        check_hierarchy_bounds(2, 8, 3, (5, 6, 7))
    with pytest.raises(ValueError, match=r"at r = 3, q = 3"):
        check_hierarchy_bounds(3, 30, 3, (18, 24, 25))  # 26 * 24 > 24 * 25


def test_every_method_checks_its_hierarchy(monkeypatch):
    """The closed form, the search and the subcode enumeration each pass
    their hierarchy through the theorem checks."""
    seen = []

    def recording(q, n, k, values):
        seen.append((q, n, k, values))
        return check_hierarchy_bounds(q, n, k, values)

    for module in ("ghw.code", "ghw.formulas", "ghw.oracle"):
        monkeypatch.setattr(f"{module}.check_hierarchy_bounds", recording)
    spec = normalize(5, [[1, 2, 3], [3, 4, 5]], False)
    hierarchy_formula(2, spec)
    hierarchy_prop1(F2, spec)
    hierarchy_definitional(build_code(F2, spec))
    assert seen == [(2, 14, 5, (4, 6, 10, 12, 13))] * 3
