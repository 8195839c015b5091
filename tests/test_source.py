"""Properties of the library source itself."""

import ast
import pathlib
import types

import flagcodes

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "flagcodes"


def test_no_assert_statements():
    """Invariant checks must raise explicitly so they survive `python -O`."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert sorted(SRC.glob("*.py")) and not found, found


def test_package_exports_resolve_to_library_objects():
    assert len(set(flagcodes.__all__)) == len(flagcodes.__all__)
    for name in flagcodes.__all__:
        value = getattr(flagcodes, name)  # raises when the name is stale
        assert not isinstance(value, types.ModuleType), name
