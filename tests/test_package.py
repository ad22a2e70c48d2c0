"""The package surface: every exported name resolves, and no module imports
a name it never uses."""

import ast
import pathlib

import fedseg

SRC = pathlib.Path(fedseg.__file__).parent


def test_every_export_resolves():
    assert [name for name in fedseg.__all__ if not hasattr(fedseg, name)] == []
    assert len(set(fedseg.__all__)) == len(fedseg.__all__)


def _unused_imports(path):
    """Names bound by module-level imports and never read in the module.

    Names listed in __all__ count as read; an import statement whose lines
    carry `# noqa: F401` is exempt."""
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("# noqa: F401" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in used:
                unused.append(f"{path.name}:{node.lineno}: {alias.name}")
    return unused


def test_no_unused_module_imports():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    assert [u for path in modules for u in _unused_imports(path)] == []
