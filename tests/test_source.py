"""Properties of the library source itself."""

import ast
import importlib
import importlib.util
import os
import pathlib
import re
import subprocess
import sys
import types

import flagcodes

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "flagcodes"


def test_no_assert_statements():
    """Invariant checks must raise explicitly so they survive `python -O`."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert sorted(SRC.glob("*.py")) and not found, found


def test_no_test_passes_when_nothing_is_raised():
    """A test that expects an error says so with pytest.raises, or with an
    else that fails: a try whose handler only passes and that has no else
    passes when the call raises nothing."""
    found = []
    for path in sorted((ROOT / "tests").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Try) and not node.orelse
                  and any(all(isinstance(s, ast.Pass) for s in h.body)
                          for h in node.handlers)]
    assert not found, found


def test_package_exports_resolve_to_library_objects():
    assert len(set(flagcodes.__all__)) == len(flagcodes.__all__)
    for name in flagcodes.__all__:
        value = getattr(flagcodes, name)  # raises when the name is stale
        assert not isinstance(value, types.ModuleType), name


def test_every_export_is_named_in_the_readme():
    """README's Library section names every public name, with what it is."""
    text = (ROOT / "README.md").read_text()
    library = text[text.index("## Library"):text.index("## CLI")]
    named = set(re.findall(r"`([A-Za-z_]\w*)", library))
    missing = [name for name in flagcodes.__all__ if name not in named]
    assert not missing, missing


def test_benchmark_trace_targets_resolve():
    """perfbench/tracing.py wraps library functions by name; each target it
    lists must still be there, as Tracer.install looks it up."""
    spec = importlib.util.spec_from_file_location(
        "_bench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)  # reads the table; installs nothing
    assert tracing.TARGETS
    for span, mod_name, attr in tracing.TARGETS:
        mod = importlib.import_module(f"flagcodes.{mod_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            value = vars(getattr(mod, cls_name)).get(meth)  # as install reads it
        else:
            value = getattr(mod, attr, None)
        assert callable(value), (span, mod_name, attr)


def test_no_unused_imports():
    """Every name an import binds is read in its file; `__init__` re-exports."""
    paths = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
    unused = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        unused.append(f"{path.name}:{node.lineno} {name}")
    assert paths and not unused, unused


def test_cli_import_stays_light():
    """The CLI pulls in no module that loads the compiler and introspection
    stack (dataclasses brings inspect, ast, dis and tokenize)."""
    heavy = ("dataclasses", "inspect", "ast")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", "import flagcodes.cli, sys; "
         f"print(' '.join(m for m in {heavy!r} if m in sys.modules))"],
        env=env, capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.split() == [], out.stdout
