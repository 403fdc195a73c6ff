"""The module layout the design relies on, checked on the source."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ghw"

# the canonical bases, their layout and the chunk size: only
# linalg.basis_chunks walks a rank
WALK_INTERNALS = {
    "subspace_bases_array",
    "_bases_layout",
    "_representative_codes",
    "_CHUNK",
    "chunk_rows",
}


# K's rows and what builds them: the search context, the search and
# restrict read K by its pivots alone (simplicial.kernel_pivots); a local
# name ``basis`` there would be flagged too, so none is used
K_ROWS = {"k_space", "rref", "subspace_from_vectors", "basis"}
SEARCH_PATH = {"code.py": ("_search_context", "_search"), "simplicial.py": ("restrict",)}


def _names(tree) -> set:
    """Every name the tree imports, reads or calls."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
            names.add(node.asname)
    return names


def _named(path: Path) -> set:
    """The walk internals a module names: imports, reads or calls."""
    return _names(ast.parse(path.read_text())) & WALK_INTERNALS


def test_only_linalg_walks_the_canonical_bases():
    """Every walk over a rank goes through linalg.basis_chunks, so no other
    module builds ranges of bases or sizes its own chunks."""
    assert _named(SRC / "linalg.py") == WALK_INTERNALS  # the scan sees them
    offenders = {
        path.name: sorted(_named(path))
        for path in sorted(SRC.glob("*.py"))
        if path.name != "linalg.py" and _named(path)
    }
    assert offenders == {}


def test_the_search_path_names_no_row_of_k():
    """No function on the search path names K's rows or a row reduction,
    so a kernel of any dimension costs the search its m pivots."""
    offenders = {}
    for module, functions in SEARCH_PATH.items():
        tree = ast.parse((SRC / module).read_text())
        defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
        for name in functions:
            named = _names(defs[name]) & K_ROWS
            if named:
                offenders[f"{module}:{name}"] = sorted(named)
    assert offenders == {}
