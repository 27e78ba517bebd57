"""Every module-level import is read by the module that makes it.

A stdlib-only scan: for each source and test module, collect the names
bound by top-level ``import`` statements and report those the module
never reads. A name listed in a literal ``__all__`` counts as read, so
re-exports stay legal. More guards keep what the engine and ``import
divmin`` load in check, and keep the sources off numpy's broadcasts that
stop at 32 dimensions.
"""

import ast
import subprocess
import sys
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


# Helpers that materialize tables for the reports, and the reports'
# layout of one axis per variable. The engine must not import them: the
# certificate checks compare its contractions against the reports, and a
# shared step would hide its own errors from both.
MATERIALIZATION = {
    "divmin.systems": {"_grow", "build_joint", "build_target", "target_factor_log_array"},
    "divmin.decomp": {"observe"},
    "divmin.tables": {"_Layout"},
}


def materialization_imports(source: str, package: str = "divmin") -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            module = f"{package}.{module}" if node.level else module
            found += [
                f"{module}.{a.name}" for a in node.names
                if a.name in MATERIALIZATION.get(module, ()) or a.name == "*"
            ]
        elif isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name in MATERIALIZATION]
    return found


def test_the_guard_finds_a_materialization_import():
    source = "from .systems import softmax, build_joint\nfrom .decomp import realize\n"
    assert materialization_imports(source) == ["divmin.systems.build_joint"]
    assert materialization_imports("import divmin.decomp\n") == ["divmin.decomp"]


def test_the_engine_imports_no_materialization_helper():
    source = (ROOT / "src" / "divmin" / "engine.py").read_text()
    assert materialization_imports(source) == []


# numpy broadcasts at most 32 dimensions in these two, while the reports'
# arrays carry one axis per variable.
NARROW_BROADCASTS = {"broadcast", "broadcast_shapes"}


def narrow_broadcasts(source: str) -> list[str]:
    return [
        f"np.{node.attr}" for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in NARROW_BROADCASTS
        and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
    ]


def test_the_guard_finds_a_narrow_broadcast():
    source = "import numpy as np\nnp.broadcast_to(a, s)\nnp.broadcast(a, b).shape\n"
    assert narrow_broadcasts(source) == ["np.broadcast"]
    assert narrow_broadcasts("f = np.broadcast_shapes\n") == ["np.broadcast_shapes"]


def test_no_source_module_uses_a_narrow_broadcast():
    found = {
        path.name: names
        for path in sorted((ROOT / "src" / "divmin").glob("*.py"))
        if (names := narrow_broadcasts(path.read_text()))
    }
    assert found == {}


def test_importing_the_package_loads_no_process_pool():
    # verify imports these only when it forks its workers, so that
    # ``import divmin`` does not pay for them.
    probe = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import divmin; "
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"
