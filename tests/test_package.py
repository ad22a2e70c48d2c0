"""The package surface: every exported name resolves, no module imports a
name it never uses, every private definition and every public function and
class is read in the package, the README's commands parse, and every name
the benchmark's tracer wraps exists."""

import ast
import importlib
import pathlib
import shlex

import fedseg
import fedseg.benchmark
from fedseg.cli import build_parser

SRC = pathlib.Path(fedseg.__file__).parent
ROOT = pathlib.Path(__file__).parent.parent
README = ROOT / "README.md"


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


def _private_definitions(tree):
    """Module-level private (one leading underscore) functions, classes and
    constants of a parsed module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        yield from (name for name in targets
                    if name.startswith("_") and not name.startswith("__"))


def _reads(tree):
    """Names a parsed module reads: loads, attributes and imported names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_every_private_definition_is_read_in_the_package():
    """A private helper that a deletion leaves without a reader in src/
    fails here, even when tests still call it."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    read = {name for tree in trees.values() for name in _reads(tree)}
    orphans = [f"{module}: {name}" for module, tree in trees.items()
               for name in _private_definitions(tree) if name not in read]
    assert orphans == []


# Read outside src/: perfbench, the acceptance suite and tools/ab_digest.py
# run a benchmark seed through it.
_READ_OUTSIDE_THE_PACKAGE = {"run_benchmark"}


def test_every_public_definition_is_read_in_the_package():
    """A public module-level function or class that only tests, demos or
    tools call fails here; the package __init__ counts as a reader."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    read = {name for tree in trees.values() for name in _reads(tree)}
    orphans = [f"{module}: {node.name}" for module, tree in trees.items()
               for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not node.name.startswith("_") and node.name not in read
               and node.name not in _READ_OUTSIDE_THE_PACKAGE]
    assert orphans == []


def test_readme_command_line_block_parses():
    """Each command of the README's "Command line" block parses, so a flag
    that is removed or renamed fails here."""
    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```", 2)[1]
    commands = block.replace("\\\n", " ").strip().splitlines()
    assert len(commands) == 5
    for command in commands:
        program, *argv = shlex.split(command)
        assert program == "fedseg"
        assert build_parser().parse_args(argv).command == argv[0]


def test_perfbench_tracer_finds_every_name_it_wraps(monkeypatch):
    """perfbench/tracing.py looks names up on fedseg's modules (for example
    network.max_pool, federation.ThreadPoolExecutor, the `# noqa` bindings);
    install fails when one is gone, which only a traced benchmark run would
    show otherwise."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracing = importlib.import_module("tracing")
    original = fedseg.network.max_pool
    patches = tracing.install(tracing.Tracer(), fedseg)
    try:
        assert fedseg.network.max_pool is not original
    finally:
        patches.undo()
    assert fedseg.network.max_pool is original
