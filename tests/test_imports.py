"""Every module-level import is read by the module that makes it.

A stdlib-only scan: for each source and test module, collect the names
bound by top-level ``import`` statements and report those the module
never reads. A name listed in a literal ``__all__`` counts as read, so
re-exports stay legal.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "divmin").glob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py")
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: list[str] = []
    exported: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | exported
    return [name for name in imported if name not in read]


def test_the_scan_finds_an_unused_import():
    source = "import os\nfrom math import log, pi\n__all__ = ['pi']\nprint(os.sep)\n"
    assert unused_imports(source) == ["log"]


def test_no_module_imports_a_name_it_never_reads():
    found = {
        str(path.relative_to(ROOT)): names
        for path in MODULES
        if (names := unused_imports(path.read_text()))
    }
    assert found == {}
