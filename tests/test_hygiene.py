"""Static checks on the source of the package and its tests."""

import ast
import glob
import os
import re

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = "stablekneser"

# Top-level definitions of src/ that nothing but their own tests reads, kept
# because each states an object of the paper.  The allowlist must equal the
# unread set exactly, so an entry goes stale once something reads the name.
ALLOWED_UNREAD = {
    "geometry.v_of_set": "the sphere map S -> v(S) on the vertices of SG_{n,k}",
    "geometry.borsuk_adjacent": "the edges of the Borsuk graph",
    "graphs.free_action_check": "the dihedral action is free, e.g. on SG_{2s,4}",
    "graphs.dihedral_act": "the canonical action of D_{2m} on vertex labels",
    "graphs.kneser_graph": "SG_{n,k} is an induced subgraph of KG_{n,k}",
    "matroid.is_vector": "the vectors of C^{m,k+1}, dual to its covectors",
    "matroid.parse_sign_vector": "where sign vectors enter as text",
}


def module_paths():
    """Every package module but __init__.py, which re-exports, and every test module."""
    package = [p for p in glob.glob(os.path.join(ROOT, "src", PACKAGE, "*.py"))
               if os.path.basename(p) != "__init__.py"]
    return sorted(package + glob.glob(os.path.join(ROOT, "tests", "*.py")))


def _parse(path):
    with open(path) as fh:
        return ast.parse(fh.read(), path)


def unused_imports(path):
    """Names bound by the module's top-level imports that it never reads."""
    tree = _parse(path)
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


def _package_names(tree, modules):
    """Names a tree reads from the package.

    Names imported from it (`from .mod import name`, `from stablekneser.mod
    import name`) and attributes of a package module (`mod.name`,
    `stablekneser.mod.name`); an attribute of anything else is not a read.
    """
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").partition(".")[0] == PACKAGE):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute) and \
                ast.unparse(node.value).removeprefix(PACKAGE + ".") in modules:
            out.add(node.attr)
    return out


def _loaded_names(node):
    return {n.id for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def unread_definitions(root):
    """Top-level defs and classes of src/stablekneser/*.py that nothing reads.

    __init__.py is skipped and its re-exports are not reads.  A definition is
    read when another package module reads it from the package, when its own
    module names it outside the definition's own body, when perfbench/*.py
    reads it from the package or names it in a dotted string (the hooks of
    perfbench/tracing.py), when tests/test_acceptance.py reads it from the
    package, or when a fenced block or inline code span of README.md names it.
    Returns "module.name" entries, sorted.
    """
    paths = sorted(p for p in glob.glob(os.path.join(root, "src", PACKAGE, "*.py"))
                   if os.path.basename(p) != "__init__.py")
    trees = {os.path.basename(p)[:-3]: _parse(p) for p in paths}
    modules = set(trees)
    read_from_package = {name: _package_names(tree, modules) for name, tree in trees.items()}

    outside = set()
    for path in glob.glob(os.path.join(root, "perfbench", "*.py")):
        tree = _parse(path)
        outside |= _package_names(tree, modules)
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and re.fullmatch(r"\w+(\.\w+)*", node.value):
                outside.update(node.value.split("."))
    acceptance = os.path.join(root, "tests", "test_acceptance.py")
    if os.path.exists(acceptance):
        outside |= _package_names(_parse(acceptance), modules)
    readme = os.path.join(root, "README.md")
    if os.path.exists(readme):
        with open(readme) as fh:
            text = fh.read()
        for code in re.findall(r"^```.*?^```|`[^`\n]+`", text, re.S | re.M):
            outside.update(re.findall(r"[A-Za-z_]\w*", code))

    unread = []
    for module, tree in trees.items():
        others = set().union(outside, *(names for m, names in read_from_package.items()
                                        if m != module))
        loaded = [_loaded_names(node) for node in tree.body]
        for i, node in enumerate(tree.body):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                    and node.name not in others.union(*loaded[:i], *loaded[i + 1:]):
                unread.append("%s.%s" % (module, node.name))
    return sorted(unread)


def test_every_top_level_definition_is_read():
    unread = set(unread_definitions(ROOT))
    problems = ["%s is read by nothing" % name for name in sorted(unread - ALLOWED_UNREAD.keys())]
    problems += ["%s is allowlisted but read" % name
                 for name in sorted(ALLOWED_UNREAD.keys() - unread)]
    assert not problems, "top-level definitions of src/:\n" + "\n".join(problems)


DEFINES_F = "def f():\n    return 1\n"

DEFINITION_CASES = {
    "unread": ({}, ["a.f"]),
    "re-exported-only": ({"src/stablekneser/__init__.py": "from .a import f\n"}, ["a.f"]),
    "module-attribute": ({"src/stablekneser/b.py": "from . import a\n\nx = a.f\n"}, []),
    "package-attribute": ({"perfbench/run.py": "import stablekneser\n\n"
                           "x = stablekneser.a.f\n"}, []),
    "imported": ({"src/stablekneser/b.py": "from .a import f\n"}, []),
    "acceptance-import": ({"tests/test_acceptance.py": "from stablekneser.a import f\n"}, []),
    "own-module": ({"src/stablekneser/a.py": DEFINES_F + "\n\ndef g():\n    return f()\n"},
                   ["a.g"]),
    "hook-string": ({"perfbench/tracing.py": 'HOOKS = [("a.f", [("a", "f")])]\n'}, []),
    "readme-inline-code": ({"README.md": "Call `f(x)` for one.\n"}, []),
    "readme-fenced-block": ({"README.md": "```python\nfrom stablekneser import f\n```\n"}, []),
    "readme-prose": ({"README.md": "Call f for one.\n"}, ["a.f"]),
    "only-calls-itself": ({"src/stablekneser/a.py": "def f(n):\n    return f(n - 1)\n"},
                          ["a.f"]),
    "attribute-of-other-object": ({"src/stablekneser/b.py": "import itertools\n\n"
                                   "x = itertools.f\n"}, ["a.f"]),
}


@pytest.mark.parametrize("files, expected", DEFINITION_CASES.values(), ids=DEFINITION_CASES)
def test_the_check_sees_an_unread_definition(tmp_path, files, expected):
    files = {"src/stablekneser/a.py": DEFINES_F, **files}
    for name, text in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    assert unread_definitions(str(tmp_path)) == expected
