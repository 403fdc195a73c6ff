import csv
import dataclasses
import io
import importlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

import pytest

from ghw import cli, formulas

# ---- field and spec resolution ---------------------------------------------


def test_rejects_non_prime_power_size(capsys):
    ret = cli.main(["params", "--q", "12", "--m", "3", "--sets", "1,2,3"])
    assert ret == 2
    assert "prime power" in capsys.readouterr().err


def test_rejects_ambiguous_extension(capsys):
    ret = cli.main(["params", "--q", "16", "--e", "2", "--m", "2", "--sets", "1,2"])
    assert ret == 2
    assert "ambiguous" in capsys.readouterr().err


def test_field_size_implies_extension(capsys):
    ret = cli.main(
        ["hierarchy", "--q", "4", "--m", "3", "--sets", "1,2;2,3", "--format", "json"]
    )
    assert ret == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["q"], payload["e"]) == (4, 2)
    assert payload["hierarchy"] == [12, 24, 27]
    assert payload["method"] == "both"


def test_prime_with_degree_builds_extension(capsys):
    ret = cli.main(
        ["params", "--q", "3", "--e", "2", "--m", "2", "--sets", "1,2", "--format", "json"]
    )
    assert ret == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["q"], payload["e"]) == (9, 2)
    assert (payload["n"], payload["k"], payload["d1"]) == (81, 2, 72)


@pytest.mark.parametrize(
    "argv",
    [
        ["params", "--q", "65537", "--m", "2", "--sets", "1"],
        ["params", "--q", "2", "--e", "17", "--m", "2", "--sets", "1"],
        ["params", "--q", "2", "--e", "0", "--m", "2", "--sets", "1"],
        ["params", "--q", "2", "--e", str(10**9), "--m", "2", "--sets", "1"],
        ["count-subspaces", "--q", "65537", "--m", "2"],
        ["params", "--q", str(2**61 - 1), "--m", "2", "--sets", "1"],
    ],
    ids=["q-over-cap", "e-over-cap", "e-zero", "e-huge", "count-q-over-cap", "q-mersenne-61"],
)
def test_field_errors_exit_two(capsys, argv):
    """A field ghw does not support is an input error, refused before
    factoring: trial division up to the root of 2^61 - 1 takes far longer
    than a second."""
    start = perf_counter()
    assert cli.main(argv) == 2
    assert perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_malformed_cap_variable_exits_two(capsys, monkeypatch):
    monkeypatch.setenv("GHW_MAX_ENUM", "lots")
    assert cli.main(["count-subspaces", "--q", "2", "--m", "3"]) == 2
    assert cli.main(["hierarchy", "--q", "2", "--m", "3", "--sets", "1,2,3"]) == 2
    assert capsys.readouterr().err.count("error: GHW_MAX_ENUM must be an integer") == 2


def test_rejects_malformed_sets(capsys):
    assert cli.main(["params", "--q", "2", "--m", "3", "--sets", "1,,2"]) == 2
    assert cli.main(["params", "--q", "2", "--m", "3", "--sets", "1,4"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command",
    [["params"], ["hierarchy", "--method", "brute"]],
    ids=["params", "hierarchy-brute"],
)
def test_empty_defining_set_exits_two(capsys, command):
    """A generator covering every coordinate leaves the complement empty:
    an input error, reported before any search."""
    argv = command + ["--q", "3", "--m", "3", "--sets", "1,2,3", "--complement"]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "error: defining set <1,2,3>^c in F^3 is empty\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["count-subspaces", "--q", "2", "--m", "-1"],
        ["count-subspaces", "--q", "2", "--m", "0"],
        ["hierarchy", "--q", "2", "--m", "3", "--sets", "1", "--threads", "0"],
        ["params", "--q", "2", "--m", "3", "--sets", "1", "--threads", "-2"],
        ["verify-paper", "--threads", "0"],
    ],
    ids=["m-negative", "m-zero", "hierarchy-threads-zero", "params-threads-negative", "verify-threads-zero"],
)
def test_counts_below_one_exit_two(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "must be at least 1, got" in capsys.readouterr().err


def test_missing_arguments_exit_like_argparse():
    with pytest.raises(SystemExit) as exc:
        cli.main(["hierarchy", "--q", "2"])
    assert exc.value.code == 2


def test_verbose_reports_dropped_generator(capsys):
    ret = cli.main(
        ["params", "--q", "2", "--m", "3", "--sets", "1,2;1,2,3", "--verbose"]
    )
    assert ret == 0
    assert "dropped" in capsys.readouterr().err


# ---- output formats ---------------------------------------------------------


def test_hierarchy_json_shape(capsys):
    ret = cli.main(
        ["hierarchy", "--q", "2", "--m", "5", "--sets", "1,2,3;3,4,5", "--format", "json"]
    )
    assert ret == 0
    line = capsys.readouterr().out.strip()
    payload = json.loads(line)
    assert json.dumps(payload) == line
    assert list(payload) == [
        "q",
        "e",
        "m",
        "sets",
        "complement",
        "n",
        "k",
        "hierarchy",
        "provenance",
        "method",
        "elapsed_ms",
    ]
    assert payload["hierarchy"] == [4, 6, 10, 12, 13]
    assert payload["sets"] == [[1, 2, 3], [3, 4, 5]]
    assert payload["complement"] is False
    for key in ("q", "e", "m", "n", "k", "elapsed_ms"):
        assert isinstance(payload[key], int)
    assert all(isinstance(d, int) for d in payload["hierarchy"])
    assert len(payload["provenance"]) == payload["k"]


def test_hierarchy_csv_shape(capsys):
    ret = cli.main(
        ["hierarchy", "--q", "2", "--m", "4", "--sets", "1,2,3,4", "--format", "csv"]
    )
    assert ret == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["r", "d_r", "provenance", "method"]
    assert len(rows) == 5
    assert [row[1] for row in rows[1:]] == ["8", "12", "14", "15"]
    assert {row[3] for row in rows[1:]} == {"both"}


def test_hierarchy_text_mentions_parameters(capsys):
    ret = cli.main(["hierarchy", "--q", "2", "--m", "4", "--sets", "1,2,3,4"])
    assert ret == 0
    out = capsys.readouterr().out
    assert out.startswith("[16, 4] code over GF(2)")
    assert "r=1" in out and "d_r=8" in out


def test_hierarchy_verbose_prints_search_witnesses(capsys):
    argv = ["hierarchy", "--q", "2", "--m", "7", "--sets", "1,2,3;1,2,4,5;3,4,6,7"]
    witnesses = [
        "  witness r=1: [0000100]",
        "  witness r=2: [0000010 0000001]",
        "  witness r=3: [1000000 0100000 0000100]",
        "  witness r=4: [1000000 0100000 0010000 0000100]",
        "  witness r=5: [1000000 0100000 0010000 0001000 0000100]",
        "  witness r=6: [1000000 0100000 0010000 0001000 0000100 0000010]",
        "  witness r=7: [1000000 0100000 0010000 0001000 0000100 0000010 0000001]",
    ]
    for method, expected in (("both", witnesses), ("brute", witnesses), ("formula", [])):
        assert cli.main(argv + ["--method", method, "--verbose"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if "witness" in line] == expected


def test_params_on_verified_complement(capsys):
    ret = cli.main(
        ["params", "--q", "2", "--m", "5", "--sets", "2,3,4", "--complement", "--format", "json"]
    )
    assert ret == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["n"], payload["k"], payload["d1"]) == (24, 5, 12)
    assert payload["method"] == "formula"


def test_params_on_twenty_singletons(capsys):
    """A [21, 20, 1] code from 20 generators: sizing it takes one term per
    distinct intersection, not 2^20 - 1 generator subsets."""
    sets = ";".join(str(i) for i in range(1, 21))
    ret = cli.main(["params", "--q", "2", "--m", "20", "--sets", sets, "--format", "json"])
    assert ret == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["n"], payload["k"], payload["d1"]) == (21, 20, 1)
    assert payload["method"] == "formula"


def test_params_falls_back_to_search(capsys):
    ret = cli.main(
        ["params", "--q", "2", "--m", "4", "--sets", "1,2", "--format", "json"]
    )
    assert ret == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["method"] == "prop1-search"
    assert (payload["n"], payload["k"], payload["d1"]) == (4, 2, 2)


def test_params_search_takes_n_and_k_from_the_search(capsys, monkeypatch):
    """No table claims four overlapping generators, so params searches; n
    and k come from that search, not from building the code."""

    def refuse(*args, **kwargs):
        raise AssertionError("params built the code")

    monkeypatch.setattr("ghw.code.build_code", refuse)
    monkeypatch.setattr(cli, "build_code", refuse, raising=False)
    argv = ["params", "--q", "2", "--m", "8", "--sets", "1,2,3;3,4,5;5,6,7;1,7,8"]
    assert cli.main(argv + ["--format", "json"]) == 0
    out = re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', capsys.readouterr().out)
    assert out == (
        '{"q": 2, "e": 1, "m": 8, "sets": [[1, 2, 3], [1, 7, 8], [3, 4, 5], '
        '[5, 6, 7]], "complement": false, "n": 25, "k": 8, "d1": 4, '
        '"method": "prop1-search", "elapsed_ms": 0}\n'
    )


def test_a_large_kernel_is_never_enumerated(capsys, monkeypatch):
    """The search spans a coordinate complement of K and lists no vector
    of it: q=2 m=30 `1,2;2,3` has a kernel of 2^27 vectors, and q=3 m=24
    `1,2,3;3,4,5` one of 3^19 with G(24, 1) = 1.4e11 lines of F^24; both
    answer from the G(k, r) subspaces of F^k, the second with the
    hierarchy of the same generators at m = 5."""
    monkeypatch.delenv("GHW_MAX_ENUM", raising=False)
    assert cli.main(["params", "--q", "2", "--m", "30", "--sets", "1,2;2,3"]) == 0
    assert capsys.readouterr().out.startswith("[6, 3, 2] code over GF(2), <1,2;2,3> in F^30\n")
    hierarchies = []
    for m in ("24", "5"):
        argv = ["hierarchy", "--method", "brute", "--q", "3", "--m", m, "--sets", "1,2,3;3,4,5"]
        assert cli.main(argv + ["--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        hierarchies.append((payload["n"], payload["k"], payload["hierarchy"]))
    assert hierarchies[0] == hierarchies[1] == (51, 5, [18, 24, 42, 48, 50])


def test_count_subspaces_json(capsys):
    """`count` is G(m, r); `search_ops` prices the search, which spans
    F^k for k = |union| = 2 here: G(2, 2) = 1 basis times the side times
    k, and no ops above rank k.  The union is all of F^2, so the side, its
    complement in F^2, is empty, and the text header says so."""
    ret = cli.main(["count-subspaces", "--q", "2", "--m", "4", "--format", "json"])
    assert ret == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["total"] == 66
    assert payload["rows"][0] == {"r": 1, "count": 15}
    argv = ["count-subspaces", "--q", "2", "--m", "4", "--sets", "1,2", "--format", "json"]
    assert cli.main(argv + ["--r", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rows"] == [{"r": 2, "count": 35, "search_ops": 1 * 0 * 2}]
    assert payload["total"] == 35
    assert cli.main(argv) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [sorted(row) for row in rows] == [["count", "r", "search_ops"]] * 2 + [["count", "r"]] * 2
    assert cli.main(argv[:-2]) == 0
    assert capsys.readouterr().out.startswith("subspaces of F_2^4 (defining side size 0)\n")


def test_count_subspaces_estimates_the_method_the_search_picks(capsys):
    """Per candidate, the estimate takes the product of the scoring method
    the search picks: q^r m at the character-sum ranks 1-5 of q=2 m=9
    `1,2,3,4,5;5,6,7,8,9`, |side| m = 62 m above them."""
    argv = ["count-subspaces", "--q", "2", "--m", "9", "--sets", "1,2,3,4,5;5,6,7,8,9"]
    assert cli.main(argv + ["--r", "1", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rows"] == [{"r": 1, "count": 511, "search_ops": 511 * 2 * 9}]
    assert cli.main(argv + ["--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [row["search_ops"] // (row["count"] * 9) for row in rows] == [
        2, 4, 8, 16, 32, 62, 62, 62, 62
    ]


def test_count_subspaces_counts_the_orbit_representatives_at_q3(capsys):
    """Over q > 2 the search scores one basis per column orbit, so the
    estimate multiplies the representatives, 6,468 of the 99,463 planes
    of F_3^7 (the rank-2 rows of a full scan; a hierarchy stops at 500),
    by the character sum's q^r m; the count stays G(m, r)."""
    argv = ["count-subspaces", "--q", "3", "--m", "7", "--sets", "1,2,3;3,4,5;5,6,7"]
    assert cli.main(argv + ["--r", "2", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rows"] == [{"r": 2, "count": 99463, "search_ops": 6468 * 9 * 7}]


@pytest.mark.parametrize("rank", ["0", "-2", "5", "9"])
def test_count_subspaces_refuses_ranks_outside_1_to_m(capsys, rank):
    """Only ranks 1..m have candidates to count; any other --r is an input
    error, not a row with count 1 or 0."""
    assert cli.main(["count-subspaces", "--q", "2", "--m", "4", "--r", rank]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --r must lie in 1..4, got {rank}\n"
    assert cli.main(["count-subspaces", "--q", "2", "--m", "4", "--r", "4"]) == 0


def test_count_subspaces_has_no_complement_flag(capsys):
    """The estimate scans the smaller side whatever the flag says, so
    count-subspaces takes no --complement."""
    with pytest.raises(SystemExit) as exc:
        cli.main(["count-subspaces", "--q", "3", "--m", "4", "--sets", "1,2", "--complement"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --complement" in capsys.readouterr().err


def test_count_subspaces_notes_the_ranks_over_the_cap(capsys, monkeypatch):
    """The cap applies to each rank's count of the candidates a search
    would walk, G(k, r), not to their sum."""
    monkeypatch.delenv("GHW_MAX_ENUM", raising=False)
    assert cli.main(["count-subspaces", "--q", "13", "--m", "5"]) == 0
    out = capsys.readouterr().out
    assert "total candidates: 10581823" in out and "note:" not in out
    assert cli.main(["count-subspaces", "--q", "2", "--m", "10"]) == 0
    assert "note: over the enumeration cap 10000000 at r = 4, 5, 6;" in capsys.readouterr().out
    # the search spans the union's 8 coordinates: at most G(8, 4) = 200,787
    assert cli.main(["count-subspaces", "--q", "2", "--m", "10", "--sets", "1,2,3,4;4,5,6,7,8"]) == 0
    assert "note:" not in capsys.readouterr().out
    monkeypatch.setenv("GHW_MAX_ENUM", "5000000")
    assert cli.main(["count-subspaces", "--q", "13", "--m", "5"]) == 0
    assert "note: over the enumeration cap 5000000 at r = 2, 3;" in capsys.readouterr().out


def _count_walks(monkeypatch, walk=None):
    """Count the calls of ``simplicial.union_terms`` from every module that
    binds it; ``walk`` replaces the real walk when given."""
    from ghw import code, simplicial

    real = simplicial.union_terms
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return (walk or real)(*args, **kwargs)

    for module in (simplicial, code, cli):
        if getattr(module, "union_terms", None) is real:
            monkeypatch.setattr(module, "union_terms", counting)
    return calls


def _all_but_one(m):
    return ";".join(",".join(str(j) for j in range(1, m + 1) if j != i) for i in range(1, m + 1))


@pytest.mark.parametrize(
    "argv, walks",
    [
        (["params", "--q", "2", "--m", "18", "--sets", _all_but_one(18)], 1),
        (["hierarchy", "--q", "3", "--m", "7", "--sets", "1,2,3;3,4,5;5,6,7"], 2),
        (["count-subspaces", "--q", "3", "--m", "7", "--sets", "1,2,3;3,4,5;5,6,7"], 1),
    ],
    ids=["params-all-but-one", "hierarchy-q3m7", "count-subspaces"],
)
def test_inclusion_exclusion_walks_per_request_are_pinned(
    capsys, monkeypatch, argv, walks
):
    """The spec is sized by one walk per layer that needs a size: the
    search context (the 18 generators [18] - {i}, 262,143 terms, were
    walked three times), and with hierarchy --method both also the closed
    form.  The member listing caps what it holds and walks nothing, and
    count-subspaces reads the search context.  Emptiness is read off the
    generators, so the CLI walks nothing to refuse an empty D."""
    calls = _count_walks(monkeypatch)
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert len(calls) == walks


def test_count_subspaces_checks_the_rank_before_sizing_the_sets(capsys, monkeypatch):
    """An --r outside 1..m is refused before --sets is sized: the 20
    generators [20] - {i} would take about a million terms."""

    def refuse(*args, **kwargs):
        raise AssertionError("union_terms walked")

    _count_walks(monkeypatch, refuse)
    argv = ["count-subspaces", "--q", "2", "--m", "20", "--sets", _all_but_one(20), "--r", "0"]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "error: --r must lie in 1..20, got 0\n"


def test_a_small_cap_does_not_refuse_a_closed_form(capsys):
    """Emptiness needs no sizing, so the CLI sizes nothing before the
    closed form, and a --max-enum below the two generators' inclusion-
    exclusion terms (three) refuses only a search.  The closed form sizes
    the spec under no cap, since the cap bounds enumeration, which the
    formula does none of."""
    argv = ["params", "--q", "2", "--m", "4", "--sets", "1,2;3,4", "--max-enum", "2"]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert out.startswith("[7, 4, 2] code over GF(2), <1,2;3,4> in F^4\nmethod: formula ")
    assert cli.main(["hierarchy", "--method", "brute"] + argv[1:]) == 3
    assert "refusing to enumerate 3 inclusion-exclusion terms" in capsys.readouterr().err


def test_the_cap_variable_does_not_refuse_a_closed_form(capsys, monkeypatch):
    """GHW_MAX_ENUM below the three terms of `1,2;3,4` refuses no closed
    form: not `params`, not the closed form half of `hierarchy --method
    both` (whose search is under --max-enum) and not the formula leg of
    `verify-paper`.  A search under that cap is still refused."""
    monkeypatch.setenv("GHW_MAX_ENUM", "2")
    argv = ["--q", "2", "--m", "4", "--sets", "1,2;3,4", "--max-enum", "1000"]
    assert cli.main(["params"] + argv) == 0
    assert capsys.readouterr().out.startswith("[7, 4, 2] code over GF(2)")
    assert cli.main(["hierarchy"] + argv) == 0
    assert "method: both " in capsys.readouterr().out
    assert cli.main(["verify-paper", "--only", "thm2", "--max-enum", "100000"]) == 0
    assert "1 cases: 1 passed, 0 failed" in capsys.readouterr().out
    assert cli.main(["hierarchy", "--method", "brute"] + argv[:-2]) == 3
    assert "refusing to enumerate 3 inclusion-exclusion terms" in capsys.readouterr().err


# ---- exit codes under failure ----------------------------------------------


def test_formula_unavailable_exits_five(capsys):
    ret = cli.main(
        ["hierarchy", "--q", "2", "--m", "4", "--sets", "1,2", "--method", "formula"]
    )
    assert ret == 5
    assert "no closed form applies" in capsys.readouterr().err
    # the search has no coverage requirement
    assert cli.main(
        ["hierarchy", "--q", "2", "--m", "4", "--sets", "1,2", "--method", "brute"]
    ) == 0


def test_enumeration_cap_exits_three(capsys):
    ret = cli.main(
        ["hierarchy", "--q", "2", "--m", "4", "--sets", "1,2,3,4",
         "--method", "brute", "--max-enum", "2"]
    )
    assert ret == 3
    assert "error:" in capsys.readouterr().err


def test_member_code_overflow_exits_three(capsys):
    """Member codes of F_3^40 pass 64 bits: a size limit, like the cap.  A
    complement over q = 3 has no kernel, so its union side is listed in
    F^40, once a cap above G(40, 1) = 6.1e18 lets the search start."""
    argv = ["params", "--q", "3", "--m", "40", "--sets", "1,2;2,3;3,4", "--complement"]
    assert cli.main(argv + ["--max-enum", str(10**19)]) == 3
    err = capsys.readouterr().err
    assert err == "error: member code 10806813741383936712 does not fit in 64 bits\n"


_FIRST_21 = ",".join(map(str, range(1, 22)))


@pytest.mark.parametrize(
    "argv, line",
    [
        (["--q", "3", "--m", "40", "--sets", "1,2"], "[9, 2, 6] code over GF(3), <1,2> in F^40"),
        (
            ["--q", "2", "--m", "22", "--sets", _FIRST_21],
            f"[2097152, 21, 1048576] code over GF(2), <{_FIRST_21}> in F^22",
        ),
    ],
    ids=["q3m40", "q2m22"],
)
def test_a_kernel_spec_is_searched_on_its_union(capsys, monkeypatch, argv, line):
    """The search reads D at C, the union of the generators, so its member
    codes and its side are those of F^k: `1,2` in F_3^40 (codes past 64
    bits in F^40) and [21] in F_2^22 (2^21 members, whose complement in
    F^21 is the empty side) are answered."""
    monkeypatch.delenv("GHW_MAX_ENUM", raising=False)
    assert cli.main(["params"] + argv) == 0
    assert capsys.readouterr().out.startswith(line + "\nmethod: prop1-search ")


@pytest.mark.parametrize(
    "argv, line",
    [
        (
            ["--q", "3", "--m", "15", "--sets", _all_but_one(15)],
            "[14316139, 15, 9533170] code over GF(3), ",
        ),
        (
            ["--q", "2", "--m", "8", "--sets", "1,2,3;3,4,5;5,6,7;1,7,8"],
            "[25, 8, 4] code over GF(2), <1,2,3;1,7,8;3,4,5;5,6,7> in F^8\n",
        ),
    ],
    ids=["q3m15-all-but-one", "params-search"],
)
def test_a_rank_scored_by_the_character_sum_lists_no_side(capsys, monkeypatch, argv, line):
    """Only the member product reads the scanned side, so params, whose
    one rank takes the character sum on these specs, lists nothing.  The
    side of [15] - {i} over GF(3), its 32,768 full-support vectors, was
    listed by masking all 3^15 vectors of the ambient space, which the
    default cap refused."""

    def refuse(*args, **kwargs):
        raise AssertionError("the scanned side was listed")

    monkeypatch.setattr("ghw.code.member_codes", refuse)
    monkeypatch.delenv("GHW_MAX_ENUM", raising=False)
    assert cli.main(["params"] + argv) == 0
    assert capsys.readouterr().out.startswith(line)


def test_caps_refuse_before_the_side_is_listed(capsys):
    """Every cap is checked before the scanned side is listed: q=2 m=20
    `1,...,18;19,20` has 2^18 + 3 members, and G(20, 1) = 1,048,575 lines
    are over the cap, so the request is refused having traced well under
    the side's 2^18 x 20 x 8 bytes."""
    sets = ",".join(map(str, range(1, 19))) + ";19,20"
    argv = ["hierarchy", "--method", "brute", "--q", "2", "--m", "20", "--sets", sets]
    tracemalloc.start()
    try:
        assert cli.main(argv + ["--max-enum", "1000000"]) == 3
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "refusing to enumerate 1048575 1-dim subspaces" in capsys.readouterr().err
    assert peak < 8 * 2**20, peak


def test_inclusion_exclusion_terms_are_capped(capsys):
    """The 20 generators [20] - {i} have 2^20 - 1 distinct intersections.
    A generator at most doubles the terms, so their count is checked
    before each one: a cap of 100,000 refuses at 2 x 65,535 + 1 terms,
    before the million-term map is built."""
    sets = ";".join(",".join(str(j) for j in range(1, 21) if j != i) for i in range(1, 21))
    argv = ["params", "--q", "2", "--m", "20", "--sets", sets, "--max-enum", "100000"]
    assert cli.main(argv) == 3
    assert capsys.readouterr().err == (
        "error: refusing to enumerate 131071 inclusion-exclusion terms "
        "(cap 100000; raise GHW_MAX_ENUM or --max-enum to allow)\n"
    )


def test_scanned_side_expansion_is_capped(capsys):
    """The scanned side's F_p block expansion (46 vectors x 3 coordinates x
    4^2 digit pairs over GF(16)) counts against the enumeration cap."""
    argv = ["hierarchy", "--method", "brute", "--q", "16", "--m", "3", "--sets", "1;2;3"]
    assert cli.main(argv + ["--max-enum", "2000"]) == 3
    assert "refusing to enumerate 2208 F_p entries of the scanned side" in capsys.readouterr().err
    assert cli.main(argv + ["--max-enum", "2208"]) == 0


def test_cap_environment_variable(capsys, monkeypatch):
    monkeypatch.setenv("GHW_MAX_ENUM", "2")
    argv = ["hierarchy", "--q", "2", "--m", "4", "--sets", "1,2,3,4", "--method", "brute"]
    assert cli.main(argv) == 3
    capsys.readouterr()
    # an explicit flag wins over the environment
    assert cli.main(argv + ["--max-enum", "100000"]) == 0


def test_cross_check_mismatch_exits_four(capsys, monkeypatch):
    real = formulas.rows_full_space

    def shifted(q, m):
        rows = real(q, m)
        orig = rows[0].value
        rows[0] = dataclasses.replace(rows[0], value=lambda r: orig(r) + 1)
        return rows

    monkeypatch.setattr(formulas, "rows_full_space", shifted)
    ret = cli.main(["hierarchy", "--q", "2", "--m", "3", "--sets", "1,2,3"])
    assert ret == 4
    err = capsys.readouterr().err
    assert err.startswith("verification mismatch:")
    record = json.loads(err.split(":", 1)[1])
    assert (record["r"], record["formula"], record["search"]) == (1, 5, 4)


# ---- the built-in reference suite ------------------------------------------


def test_reference_filter(capsys):
    ret = cli.main(["verify-paper", "--only", "thm3"])
    assert ret == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 2
    assert "2 cases: 2 passed, 0 failed" in out


def test_reference_json_bytes_are_pinned(capsys):
    """verify-paper --format json writes one row per case with its keys in
    a fixed order and every hierarchy as a list; only the timings vary."""
    cases = (
        ("thm1", 2, 4, (8, 12, 14, 15)),
        ("thm2", 2, 5, (4, 6, 10, 12, 13)),
        ("thm3a", 2, 6, (4, 7, 15, 19, 21, 22)),
        ("thm3b", 3, 5, (22, 76, 94, 100, 102)),
        ("thm4", 3, 6, (2, 4, 10, 12, 18, 20)),
        ("thm5", 2, 5, (12, 18, 21, 23, 24)),
        ("thm6", 2, 6, (26, 40, 47, 51, 53, 54)),
        ("thm7", 3, 5, (150, 202, 220, 226, 228)),
    )
    rows = []
    for case_id, q, m, values in cases:
        h = "[" + ", ".join(map(str, values)) + "]"
        rows.append(
            f'{{"id": "{case_id}", "ok": true, "q": {q}, "m": {m}, "expected": {h}, '
            f'"formula": {h}, "prop1": {h}, "definitional": {h}, "elapsed_ms": 0, "detail": ""}}'
        )
    assert cli.main(["verify-paper", "--only", "thm", "--format", "json"]) == 0
    out = re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', capsys.readouterr().out)
    assert out == "[" + ", ".join(rows) + "]\n"


def test_verify_paper_shares_the_run_options(capsys):
    """verify-paper takes --threads and --max-enum with the help text of
    params and hierarchy, and no --verbose, which it would not read."""
    with pytest.raises(SystemExit):
        cli.main(["verify-paper", "--help"])
    out = " ".join(capsys.readouterr().out.split())
    assert "--max-enum MAX_ENUM enumeration cap (overrides GHW_MAX_ENUM; default 10000000)" in out
    assert "--threads THREADS accepted and validated (at least 1)" in out
    assert "--verbose" not in out


def test_reference_filter_without_match(capsys):
    assert cli.main(["verify-paper", "--only", "nosuchcase"]) == 2


def test_reference_catches_broken_table(capsys, monkeypatch):
    real = formulas.rows_two_overlapping

    def broken(q, m, a1, a2, t12):
        rows = real(q, m, a1, a2, t12)
        orig = rows[1].value
        rows[1] = dataclasses.replace(rows[1], value=lambda r: orig(r) + 1)
        return rows

    monkeypatch.setattr(formulas, "rows_two_overlapping", broken)
    ret = cli.main(["verify-paper"])
    assert ret == 4
    out = capsys.readouterr().out
    fail_lines = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert len(fail_lines) == 1
    assert "thm2" in fail_lines[0]
    assert "T2" in out
    assert "12 passed, 1 failed" in out


# ---- the benchmark's traced launcher ----------------------------------------


@pytest.mark.parametrize(
    "argv, line",
    [
        (["verify-paper"], "13 cases: 13 passed, 0 failed"),
        (
            ["hierarchy", "--method", "brute", "--q", "2", "--m", "7",
             "--sets", "1,2,3,4;4,5,6", "--format", "json"],
            '"hierarchy": [4, 6, 14, 18, 20, 21]',
        ),
        (
            ["hierarchy", "--method", "brute", "--q", "3", "--m", "5",
             "--sets", "1,2;2,3,4", "--format", "json"],
            '"hierarchy": [6, 24, 30, 32]',
        ),
    ],
    ids=["verify-paper", "brute-kernel", "brute-q3-orbits"],
)
def test_traced_verify_paper_reports_every_layer(monkeypatch, argv, line):
    """perfbench/launch.py wraps each layer's entry point by module and
    name, and silently skips one that is gone or lost its cache; a traced
    run must still pass, report every layer present and yield every
    per-layer metric BENCHMARK.json lists.  The brute request has a
    one-dimensional kernel, so its search masks candidates, and it scores
    ranks 1-3 by the character sum and ranks 4-6 by the member product.
    The q = 3 request builds only column-orbit representatives, and they
    still pass through the wrapped generator and its cache."""
    root = Path(__file__).resolve().parent.parent
    bench = root / "perfbench"
    monkeypatch.syspath_prepend(str(bench))
    layers = importlib.import_module("layers")
    proc = subprocess.run(
        [sys.executable, str(bench / "launch.py"), *argv],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert line in proc.stdout, proc.stdout
    last = proc.stderr.splitlines()[-1]
    assert last.startswith(layers.TRACE_MARK)
    payload = json.loads(last[len(layers.TRACE_MARK) :])
    assert set(payload["present"]) == {entry[2] for entry in layers.ENTRY_POINTS}
    assert payload["totals"]["bases_bytes"] > 0
    declared = json.loads((root / "BENCHMARK.json").read_text())["per_layer"]
    assert set(layers.layer_metrics([payload], 1)) == {metric["name"] for metric in declared}


def test_importing_the_cli_loads_no_thread_pool():
    """The ranks are searched in turn, so neither importing the CLI nor a
    request with --threads 8 loads concurrent.futures (which pulls in
    logging) or starts a pool."""
    src = Path(__file__).resolve().parent.parent / "src"
    script = (
        "import sys\n"
        "from ghw.cli import main\n"
        "argv = ['hierarchy', '--q', '2', '--m', '5', '--sets', '1,2,3;3,4,5', '--threads', '8']\n"
        "assert main(argv) == 0\n"
        "print('concurrent.futures' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


@pytest.mark.parametrize("output", [["--format", "json"], ["--verbose"]], ids=["json", "verbose"])
def test_thread_count_leaves_the_output_unchanged(capsys, output):
    """--threads is accepted and validated, and nothing else: 1, 2 and 8
    give byte-identical stdout, witnesses included, once elapsed_ms is
    masked, on a zero kernel over GF(4) and a q = 2 kernel spec."""
    for argv in (
        ["hierarchy", "--q", "4", "--m", "4", "--sets", "1,2;2,3,4"],
        ["hierarchy", "--method", "brute", "--q", "2", "--m", "7", "--sets", "1,2,3;3,4,5"],
    ):
        outs = []
        for threads in ("1", "2", "8"):
            assert cli.main(argv + output + ["--threads", threads]) == 0
            outs.append(re.sub(r'elapsed_ms"?: \d+', "elapsed_ms: _", capsys.readouterr().out))
        assert outs[0] == outs[1] == outs[2]
        assert "elapsed_ms: _" in outs[0]
