"""Static checks on the source of the package and its tests."""

import ast
import glob
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def module_paths():
    """Every package module but __init__.py, which re-exports, and every test module."""
    package = [p for p in glob.glob(os.path.join(ROOT, "src", "stablekneser", "*.py"))
               if os.path.basename(p) != "__init__.py"]
    return sorted(package + glob.glob(os.path.join(ROOT, "tests", "*.py")))


def unused_imports(path):
    """Names bound by the module's top-level imports that it never reads."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_every_top_level_import_is_used():
    unused = ["%s:%d imports %s" % (os.path.relpath(path, ROOT), line, name)
              for path in module_paths() for line, name in unused_imports(path)]
    assert not unused, "unused imports:\n" + "\n".join(unused)


def test_the_check_sees_an_unused_import(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("from __future__ import annotations\n"
                    "import os.path\nimport sys\nfrom json import dumps as d, loads\n"
                    "print(os.path.sep, d)\n")
    assert unused_imports(str(path)) == [(3, "sys"), (4, "loads")]
