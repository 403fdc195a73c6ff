"""Tests of the benchmark's own checkers and input generation.

    python3 -m pytest perfbench -q

The expected values are entered by hand from the paper's theorems, never
taken from ghw.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

# (q, m, sets, complement, [n, k, d_1], hierarchy) from the paper's theorems
PAPER = [
    (2, 4, [(1, 2, 3, 4)], False, [16, 4, 8], [8, 12, 14, 15]),
    (2, 5, [(1, 2, 3), (3, 4, 5)], False, [14, 5, 4], [4, 6, 10, 12, 13]),
    (3, 5, [(1, 2), (1, 3, 4), (2, 3, 4, 5)], False, [103, 5, 22], [22, 76, 94, 100, 102]),
    (2, 5, [(2, 3, 4)], True, [24, 5, 12], [12, 18, 21, 23, 24]),
    (2, 6, [(1, 2), (2, 3, 4)], True, [54, 6, 26], [26, 40, 47, 51, 53, 54]),
    (3, 5, [(1,), (2,), (3,), (4, 5)], True, [228, 5, 150], [150, 202, 220, 226, 228]),
]


@pytest.mark.parametrize("q, m, sets, complement, nkd, hierarchy", PAPER)
def test_brute_force_parameters_match_the_paper(q, m, sets, complement, nkd, hierarchy):
    n, k, d1, nonzero = checks.code_parameters(q, m, sets, complement)
    assert [n, k, d1] == nkd
    assert nonzero == hierarchy[-1]


@pytest.mark.parametrize("q, m, sets, complement, nkd, hierarchy", PAPER)
def test_exact_hierarchy_matches_the_paper(q, m, sets, complement, nkd, hierarchy):
    assert checks.exact_hierarchy(q, m, sets, complement) == hierarchy


@pytest.mark.parametrize("q, m", [(4, 2), (4, 3), (8, 2), (9, 2)])
def test_extension_field_simplex_parameters(q, m):
    # the whole space F_q^m: every nonzero functional misses q^(m-1) points
    n, k, d1, _ = checks.code_parameters(q, m, [tuple(range(1, m + 1))], False)
    assert (n, k, d1) == (q**m, m, q**m - q ** (m - 1))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_field_tables_form_a_field(q):
    add, mul = checks.field_tables(q)
    elems = np.arange(q)
    assert all(sorted(add[a]) == list(elems) for a in elems)
    assert all(sorted(mul[a, 1:]) == list(elems[1:]) for a in elems[1:])
    a, b, c = np.meshgrid(elems, elems, elems, indexing="ij")
    assert np.array_equal(mul[a, add[b, c]], add[mul[a, b], mul[a, c]])


@pytest.mark.parametrize("q, m, sets, complement, nkd, hierarchy", PAPER)
def test_paper_hierarchies_pass_the_property_checks(q, m, sets, complement, nkd, hierarchy):
    n, k, d1, nonzero = checks.code_parameters(q, m, sets, complement)
    assert checks.hierarchy_problems(hierarchy, q, n, k, d1, nonzero) == []


@pytest.mark.parametrize("q, m, sets, complement, nkd, hierarchy", PAPER)
def test_a_bumped_entry_is_caught(q, m, sets, complement, nkd, hierarchy):
    n, k, d1, nonzero = checks.code_parameters(q, m, sets, complement)
    spec = (q, m, sets, complement)
    assert run.Checker().hierarchy(spec, n, k, hierarchy) == []
    for r in range(k):
        bumped = list(hierarchy)
        bumped[r] += 1
        # the properties alone catch d_1, d_k and a bump onto the next entry;
        # a bump strictly inside a gap is caught by the exact hierarchy
        if r in (0, k - 1) or bumped[r] == hierarchy[r + 1]:
            assert checks.hierarchy_problems(bumped, q, n, k, d1, nonzero), bumped
        assert run.Checker().hierarchy(spec, n, k, bumped), bumped


def test_properties_catch_bound_violations():
    n, k, d1, nonzero = checks.code_parameters(2, 4, [(1, 2, 3, 4)], False)
    assert any("Griesmer" in p for p in checks.hierarchy_problems([8, 9, 14, 15], 2, n, k, d1, nonzero))
    assert any("n - k + r" in p for p in checks.hierarchy_problems([8, 12, 14, 15], 2, 14, k, d1, nonzero))
    assert checks.hierarchy_problems([8, 12, 14], 2, n, k, d1, nonzero)


def test_witness_checks():
    spec = (2, 4, [(1, 2, 3, 4)], False)
    assert checks.witness_problems(*spec, 1, [[1, 0, 0, 0]], 8) == []
    assert checks.witness_problems(*spec, 2, [[1, 0, 0, 0], [0, 1, 0, 0]], 12) == []
    assert checks.witness_problems(*spec, 2, [[1, 0, 0, 0], [1, 0, 0, 0]], 12)
    assert checks.witness_problems(*spec, 1, [[1, 1, 0, 0]], 9)
    # a functional vanishing on D spans no 1-dimensional subcode
    assert checks.witness_problems(2, 4, [(1, 2)], False, 1, [[0, 0, 1, 0]], 0)


def test_sweep_covers_every_table_for_every_seed():
    for seed in range(25):
        specs = workloads.sweep_specs(seed)
        assert {s[0] for s in specs} == set(workloads.STRATA)
        assert specs[0] == workloads.SWEEP_OPENER
        assert len(specs) == 1 + sum(len(c) for c in workloads.SWEEP_PLAN.values()) * workloads.SPECS_PER_CELL
        for stratum, q, m, sets, complement in specs:
            assert workloads.normalize_sets(sets) == sets
            assert workloads.stratum_of(q, m, sets, complement) == stratum


def test_inputs_depend_only_on_the_seed():
    assert workloads.sweep_specs(7) == workloads.sweep_specs(7)
    assert workloads.sweep_specs(7) != workloads.sweep_specs(8)
    assert workloads.cli_round_requests(3) == workloads.cli_round_requests(3)


def test_every_oracle_code_has_a_closed_form():
    # the three-way cross-check needs a table to claim each code
    for _, q, m, sets, complement, _ in workloads.ORACLE_CODES:
        assert workloads.stratum_of(q, m, sets, complement) != "none"


def test_the_answering_table_must_match_the_stratum():
    checker = run.Checker()
    search = {"n": 16, "k": 4, "values": [8, 12, 14, 15]}
    op = {"input": [2, 4, [[1, 2, 3, 4]], False, "T1"], "search": search,
          "formula": dict(search, table="T1:formula")}
    assert checker.library("spec-sweep", op) == []
    assert checker.library("spec-sweep", dict(op, formula=None))
    assert checker.library("spec-sweep", dict(op, formula=dict(search, table="T4:Table4")))
