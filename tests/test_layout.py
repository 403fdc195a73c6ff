"""The module layout the design relies on, checked on the source."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ghw"

# the canonical bases and the chunk size: only linalg.basis_chunks walks a rank
WALK_INTERNALS = {"subspace_bases_array", "_CHUNK", "chunk_rows"}


def _named(path: Path) -> set:
    """The walk internals a module names: imports, reads or calls."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
            names.add(node.asname)
    return names & WALK_INTERNALS


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
