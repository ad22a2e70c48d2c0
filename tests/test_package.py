"""The package surface: every exported name resolves, no module imports a
name it never uses, the README's commands parse, and every name the
benchmark's tracer wraps exists."""

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
